//! The `MBT1` binary trace format: LEB128 varints and the header layout.
//!
//! A trace is a byte stream:
//!
//! ```text
//! magic "MBT1"                                      (4 raw bytes)
//! version n m b scheme-tag scheme-params… flags     (varints)
//! cycle-record*                                     (see below)
//! footer: tag=0 cycles grants                       (varints)
//! ```
//!
//! Every integer after the magic is an unsigned LEB128 varint (7 bits per
//! byte, high bit = continuation), so healthy small networks cost one byte
//! per field. Lists inside a cycle record are **sentinel-terminated** (a
//! `0` where an index-plus-one or tag would be), which lets the writer
//! stream without knowing list lengths up front:
//!
//! ```text
//! cycle record:
//!   tag=1  issued active unreachable
//!   failed buses:  (bus+1)* 0
//!   requested:     ((memory+1) count)* 0
//!   grants:        (bus-tag memory processor wait)* 0
//!                  bus-tag = 1 for a bus-less (crossbar) grant, bus+2 otherwise
//! ```
//!
//! The footer doubles as a truncation detector: a reader that never sees
//! `tag = 0`, or whose running counts disagree with the footer, rejects the
//! stream ([`crate::TraceError::Truncated`] / `FooterMismatch`).

use crate::TraceError;
use mbus_topology::ConnectionScheme;

/// Magic bytes opening every trace stream.
pub(crate) const MAGIC: [u8; 4] = *b"MBT1";

/// Current format version (the first varint after the magic).
pub(crate) const VERSION: u64 = 1;

/// Record tag for the footer.
pub(crate) const TAG_FOOTER: u64 = 0;
/// Record tag for a cycle record.
pub(crate) const TAG_CYCLE: u64 = 1;

/// Header flag bit: the run used resubmission semantics.
pub(crate) const FLAG_RESUBMISSION: u64 = 1;

/// Scheme tags (the header's scheme discriminant).
pub(crate) const SCHEME_FULL: u64 = 0;
pub(crate) const SCHEME_SINGLE: u64 = 1;
pub(crate) const SCHEME_PARTIAL: u64 = 2;
pub(crate) const SCHEME_KCLASS: u64 = 3;
pub(crate) const SCHEME_CROSSBAR: u64 = 4;

/// Appends `value` to `buf` as an unsigned LEB128 varint.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        // lint:allow(lossy_cast, the value is masked to 7 bits on this line)
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends the scheme encoding (tag + parameters) to `buf`.
pub(crate) fn put_scheme(buf: &mut Vec<u8>, scheme: &ConnectionScheme) {
    match scheme {
        ConnectionScheme::Full => put_varint(buf, SCHEME_FULL),
        ConnectionScheme::Single { assignment } => {
            put_varint(buf, SCHEME_SINGLE);
            put_varint(buf, assignment.len() as u64);
            for &bus in assignment {
                put_varint(buf, bus as u64);
            }
        }
        ConnectionScheme::PartialGroups { groups } => {
            put_varint(buf, SCHEME_PARTIAL);
            put_varint(buf, *groups as u64);
        }
        ConnectionScheme::KClasses { class_sizes } => {
            put_varint(buf, SCHEME_KCLASS);
            put_varint(buf, class_sizes.len() as u64);
            for &size in class_sizes {
                put_varint(buf, size as u64);
            }
        }
        // `ConnectionScheme` is non_exhaustive upstream; encode anything
        // unknown as the parameter-free crossbar tag rather than panicking.
        _ => put_varint(buf, SCHEME_CROSSBAR),
    }
}

/// The decoded trace header: dimensions, the full connection scheme (so the
/// analyzer can rebuild the topology without the original network), and run
/// flags.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Format version the stream was written with.
    pub(crate) version: u64,
    /// Number of processors `N`.
    pub processors: usize,
    /// Number of memory modules `M`.
    pub memories: usize,
    /// Number of buses `B`.
    pub buses: usize,
    /// The bus–memory connection scheme, with full parameters.
    pub scheme: ConnectionScheme,
    /// Whether the run used resubmission semantics.
    pub resubmission: bool,
}

impl TraceHeader {
    /// Rebuilds the simulated network from the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Topology`] when the recorded dimensions and scheme do
    /// not form a valid network (a corrupt or hand-edited stream).
    pub fn network(&self) -> Result<mbus_topology::BusNetwork, TraceError> {
        Ok(mbus_topology::BusNetwork::new(
            self.processors,
            self.memories,
            self.buses,
            self.scheme.clone(),
        )?)
    }
}

/// Converts a varint back to a `usize` index, guarding 32-bit targets.
pub(crate) fn to_index(value: u64, what: &str) -> Result<usize, TraceError> {
    usize::try_from(value).map_err(|_| TraceError::Corrupt {
        reason: format!("{what} {value} does not fit this platform's usize"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_back(buf: &[u8]) -> (u64, usize) {
        let mut value = 0u64;
        let mut shift = 0;
        for (i, &byte) in buf.iter().enumerate() {
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return (value, i + 1);
            }
            shift += 7;
        }
        panic!("unterminated varint");
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let (back, used) = read_back(&buf);
            assert_eq!(back, value);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 42);
        assert_eq!(buf, vec![42]);
        buf.clear();
        put_varint(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }
}
