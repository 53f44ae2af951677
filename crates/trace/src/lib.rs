//! Binary simulation traces and the streaming post-sim analyzer.
//!
//! The simulator's hot loop can optionally append one compact record per
//! measured cycle to a [`TraceWriter`] — which bus carried which grant, how
//! long the request waited, how many requesters queued at each memory, and
//! which buses were failed. This crate owns that format end to end:
//!
//! * [`writer::TraceWriter`] — streaming LEB128 encoder (the sim side);
//! * [`reader::TraceReader`] — streaming decoder with footer validation;
//! * [`analyze::analyze`] — a single bounded-memory pass computing per-bus
//!   utilization, queue backpressure, request-to-grant delay histograms,
//!   and a bottleneck ranking;
//! * [`render`] — text / markdown reports (`mbus trace analyze`; its
//!   `--json` document is `mbus_server::service::trace_json`);
//! * [`vcd`] — waveform export for external viewers (`mbus trace vcd`).
//!
//! The analyzer's per-bus busy/alive counters are defined to reconcile
//! *exactly* with `SimReport::bus_alive_cycles` and `bus_utilization`: both
//! sides count the same integers over measured cycles and divide with the
//! same expression, so equality is bitwise, not approximate (the
//! `trace_reconcile` differential suite in `mbus-sim` enforces this on all
//! five connection schemes).
//!
//! # Examples
//!
//! ```
//! use mbus_topology::{BusNetwork, ConnectionScheme};
//! use mbus_trace::{analyze, TraceGrant, TraceReader, TraceWriter};
//!
//! let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full)?;
//! let mut writer = TraceWriter::new(Vec::new(), &net, false);
//! writer.record_cycle(
//!     2, 2, 0,
//!     [],
//!     [(0, 1), (1, 1)],
//!     [TraceGrant { bus: Some(0), memory: 0, processor: 1, wait: 0 }],
//! );
//! let bytes = writer.finish()?;
//! let mut reader = TraceReader::new(bytes.as_slice())?;
//! let analysis = analyze(&mut reader)?;
//! assert_eq!(analysis.cycles, 1);
//! assert_eq!(analysis.buses[0].busy_cycles, 1);
//! assert_eq!(analysis.blocked_total, 1); // memory 1's requester lost
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub(crate) mod format;
pub(crate) mod reader;
pub mod render;
pub mod vcd;
pub mod writer;

pub use analyze::{analyze, TraceAnalysis};
pub use format::TraceHeader;
pub use reader::{CycleRecord, TraceReader};
pub use writer::{TraceGrant, TraceWriter};

use mbus_topology::TopologyError;

/// Error reading or validating a trace stream.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io {
        /// The I/O error's message.
        message: String,
    },
    /// The stream does not start with the `MBT1` magic.
    BadMagic,
    /// The stream's format version is newer than this reader.
    BadVersion {
        /// The version found in the header.
        found: u64,
    },
    /// The stream ended before its footer record.
    Truncated,
    /// A record is internally inconsistent (index out of range, unknown
    /// tag, oversized varint, …).
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// The footer's totals disagree with the records actually read.
    FooterMismatch {
        /// Which counter disagreed (`"cycles"` or `"grants"`).
        what: &'static str,
        /// The value recorded in the footer.
        footer: u64,
        /// The value counted while reading.
        counted: u64,
    },
    /// The header describes a network the topology layer rejects.
    Topology(TopologyError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { message } => write!(f, "trace i/o error: {message}"),
            Self::BadMagic => write!(f, "not a multibus trace (bad magic; expected `MBT1`)"),
            Self::BadVersion { found } => {
                write!(f, "trace format version {found} is newer than this reader")
            }
            Self::Truncated => write!(f, "trace ended before its footer record"),
            Self::Corrupt { reason } => write!(f, "corrupt trace: {reason}"),
            Self::FooterMismatch {
                what,
                footer,
                counted,
            } => write!(
                f,
                "trace footer says {footer} {what} but the stream carried {counted}"
            ),
            Self::Topology(err) => write!(f, "trace header describes an invalid network: {err}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Topology(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        Self::Io {
            message: err.to_string(),
        }
    }
}

impl From<TopologyError> for TraceError {
    fn from(err: TopologyError) -> Self {
        Self::Topology(err)
    }
}
