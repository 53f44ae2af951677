//! The streaming trace decoder.

use crate::format::{
    to_index, TraceHeader, FLAG_RESUBMISSION, MAGIC, SCHEME_CROSSBAR, SCHEME_FULL, SCHEME_KCLASS,
    SCHEME_PARTIAL, SCHEME_SINGLE, TAG_CYCLE, TAG_FOOTER, VERSION,
};
use crate::writer::TraceGrant;
use crate::TraceError;
use mbus_topology::ConnectionScheme;
use std::io::Read;

/// Chunk size for refilling the internal buffer from the source.
const CHUNK: usize = 64 * 1024;

/// One decoded cycle record. [`TraceReader::next_cycle`] refills a
/// caller-owned instance, so steady-state decoding performs no allocation
/// once the vectors have grown to their working sizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Requests newly issued this cycle.
    pub issued: u64,
    /// Total requesting processors this cycle (new + resubmitted).
    pub active: u64,
    /// Requests dropped because their memory had no alive bus.
    pub unreachable: u64,
    /// Failed bus indices this cycle.
    pub failed_buses: Vec<usize>,
    /// `(memory, queued requesters)` for each memory with ≥ 1 requester
    /// after unreachable filtering, in ascending memory order.
    pub requested: Vec<(usize, u64)>,
    /// Requests served this cycle.
    pub grants: Vec<TraceGrant>,
}

impl CycleRecord {
    fn clear(&mut self) {
        self.issued = 0;
        self.active = 0;
        self.unreachable = 0;
        self.failed_buses.clear();
        self.requested.clear();
        self.grants.clear();
    }
}

/// Streaming decoder for the `MBT1` format: parses the header eagerly,
/// then yields one [`CycleRecord`] per [`TraceReader::next_cycle`] call in
/// bounded memory, validating every index against the header and the
/// footer's totals against the records actually seen.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    header: TraceHeader,
    cycles_read: u64,
    grants_read: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream and decodes its header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::BadVersion`] for foreign or
    /// future streams, [`TraceError::Truncated`] / [`TraceError::Corrupt`]
    /// for damaged ones, [`TraceError::Io`] for source failures.
    pub fn new(src: R) -> Result<Self, TraceError> {
        let mut reader = Self {
            src,
            buf: Vec::new(),
            pos: 0,
            header: TraceHeader {
                version: 0,
                processors: 0,
                memories: 0,
                buses: 0,
                scheme: ConnectionScheme::Full,
                resubmission: false,
            },
            cycles_read: 0,
            grants_read: 0,
            done: false,
        };
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = reader.byte()?;
        }
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = reader.varint()?;
        if version > VERSION {
            return Err(TraceError::BadVersion { found: version });
        }
        let processors = to_index(reader.varint()?, "processor count")?;
        let memories = to_index(reader.varint()?, "memory count")?;
        let buses = to_index(reader.varint()?, "bus count")?;
        let scheme = reader.scheme(memories)?;
        let flags = reader.varint()?;
        reader.header = TraceHeader {
            version,
            processors,
            memories,
            buses,
            scheme,
            resubmission: flags & FLAG_RESUBMISSION != 0,
        };
        Ok(reader)
    }

    /// The decoded header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Cycle records decoded so far.
    pub fn cycles_read(&self) -> u64 {
        self.cycles_read
    }

    /// Decodes the next cycle record into `record`.
    ///
    /// Returns `Ok(false)` once the footer has been reached and validated
    /// (and on every call after); `record` is left cleared in that case.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] if the stream ends mid-record,
    /// [`TraceError::Corrupt`] for invalid indices or tags, and
    /// [`TraceError::FooterMismatch`] when the footer's totals disagree
    /// with the records read.
    pub fn next_cycle(&mut self, record: &mut CycleRecord) -> Result<bool, TraceError> {
        record.clear();
        if self.done {
            return Ok(false);
        }
        match self.varint()? {
            TAG_FOOTER => {
                let cycles = self.varint()?;
                let grants = self.varint()?;
                if cycles != self.cycles_read {
                    return Err(TraceError::FooterMismatch {
                        what: "cycles",
                        footer: cycles,
                        counted: self.cycles_read,
                    });
                }
                if grants != self.grants_read {
                    return Err(TraceError::FooterMismatch {
                        what: "grants",
                        footer: grants,
                        counted: self.grants_read,
                    });
                }
                self.done = true;
                Ok(false)
            }
            TAG_CYCLE => {
                record.issued = self.varint()?;
                record.active = self.varint()?;
                record.unreachable = self.varint()?;
                loop {
                    let tag = self.varint()?;
                    if tag == 0 {
                        break;
                    }
                    let bus = to_index(tag - 1, "failed bus")?;
                    self.check_index(bus, self.header.buses, "failed bus")?;
                    record.failed_buses.push(bus);
                }
                loop {
                    let tag = self.varint()?;
                    if tag == 0 {
                        break;
                    }
                    let memory = to_index(tag - 1, "requested memory")?;
                    self.check_index(memory, self.header.memories, "requested memory")?;
                    let count = self.varint()?;
                    record.requested.push((memory, count));
                }
                loop {
                    let tag = self.varint()?;
                    if tag == 0 {
                        break;
                    }
                    let bus = if tag == 1 {
                        None
                    } else {
                        let bus = to_index(tag - 2, "grant bus")?;
                        self.check_index(bus, self.header.buses, "grant bus")?;
                        Some(bus)
                    };
                    let memory = to_index(self.varint()?, "grant memory")?;
                    self.check_index(memory, self.header.memories, "grant memory")?;
                    let processor = to_index(self.varint()?, "grant processor")?;
                    self.check_index(processor, self.header.processors, "grant processor")?;
                    let wait = self.varint()?;
                    record.grants.push(TraceGrant {
                        bus,
                        memory,
                        processor,
                        wait,
                    });
                }
                self.cycles_read += 1;
                self.grants_read += record.grants.len() as u64;
                Ok(true)
            }
            other => Err(TraceError::Corrupt {
                reason: format!("unknown record tag {other}"),
            }),
        }
    }

    fn check_index(&self, index: usize, limit: usize, what: &str) -> Result<(), TraceError> {
        if index >= limit {
            return Err(TraceError::Corrupt {
                reason: format!("{what} {index} out of range (limit {limit})"),
            });
        }
        Ok(())
    }

    fn scheme(&mut self, memories: usize) -> Result<ConnectionScheme, TraceError> {
        match self.varint()? {
            SCHEME_FULL => Ok(ConnectionScheme::Full),
            SCHEME_SINGLE => {
                let len = to_index(self.varint()?, "assignment length")?;
                if len != memories {
                    return Err(TraceError::Corrupt {
                        reason: format!("assignment length {len} != memory count {memories}"),
                    });
                }
                let mut assignment = Vec::with_capacity(len);
                for _ in 0..len {
                    assignment.push(to_index(self.varint()?, "assigned bus")?);
                }
                Ok(ConnectionScheme::Single { assignment })
            }
            SCHEME_PARTIAL => Ok(ConnectionScheme::PartialGroups {
                groups: to_index(self.varint()?, "group count")?,
            }),
            SCHEME_KCLASS => {
                let classes = to_index(self.varint()?, "class count")?;
                if classes > memories {
                    return Err(TraceError::Corrupt {
                        reason: format!("{classes} classes over {memories} memories"),
                    });
                }
                let mut class_sizes = Vec::with_capacity(classes);
                for _ in 0..classes {
                    class_sizes.push(to_index(self.varint()?, "class size")?);
                }
                Ok(ConnectionScheme::KClasses { class_sizes })
            }
            SCHEME_CROSSBAR => Ok(ConnectionScheme::Crossbar),
            other => Err(TraceError::Corrupt {
                reason: format!("unknown scheme tag {other}"),
            }),
        }
    }

    /// Decodes one unsigned LEB128 varint.
    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::Corrupt {
                    reason: "varint overflows u64".to_owned(),
                });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Corrupt {
                    reason: "varint longer than 10 bytes".to_owned(),
                });
            }
        }
    }

    /// Next raw byte, refilling from the source in chunks.
    fn byte(&mut self) -> Result<u8, TraceError> {
        if self.pos == self.buf.len() {
            self.buf.resize(CHUNK, 0);
            let n = self.src.read(&mut self.buf)?;
            self.buf.truncate(n);
            self.pos = 0;
            if n == 0 {
                return Err(TraceError::Truncated);
            }
        }
        let byte = self.buf[self.pos];
        self.pos += 1;
        Ok(byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use mbus_topology::BusNetwork;

    fn sample_trace() -> Vec<u8> {
        let net =
            BusNetwork::new(4, 4, 2, ConnectionScheme::balanced_single(4, 2).unwrap()).unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &net, true);
        writer.record_cycle(
            3,
            4,
            1,
            [1],
            [(0, 2), (2, 1)],
            [TraceGrant {
                bus: Some(0),
                memory: 0,
                processor: 3,
                wait: 2,
            }],
        );
        writer.record_cycle(0, 0, 0, [], [], []);
        writer.finish().unwrap()
    }

    #[test]
    fn round_trips_header_and_records() {
        let bytes = sample_trace();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let header = reader.header().clone();
        assert_eq!(
            (header.processors, header.memories, header.buses),
            (4, 4, 2)
        );
        assert!(header.resubmission);
        assert_eq!(
            header.scheme,
            ConnectionScheme::Single {
                assignment: vec![0, 0, 1, 1]
            }
        );
        let mut rec = CycleRecord::default();
        assert!(reader.next_cycle(&mut rec).unwrap());
        assert_eq!((rec.issued, rec.active, rec.unreachable), (3, 4, 1));
        assert_eq!(rec.failed_buses, vec![1]);
        assert_eq!(rec.requested, vec![(0, 2), (2, 1)]);
        assert_eq!(
            rec.grants,
            vec![TraceGrant {
                bus: Some(0),
                memory: 0,
                processor: 3,
                wait: 2,
            }]
        );
        assert!(reader.next_cycle(&mut rec).unwrap());
        assert!(rec.grants.is_empty());
        assert!(!reader.next_cycle(&mut rec).unwrap(), "footer ends stream");
        assert!(!reader.next_cycle(&mut rec).unwrap(), "stays ended");
        assert_eq!(reader.cycles_read(), 2);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_trace();
        // Chop off the footer (3 varints = 3 bytes here) and a bit more.
        let cut = &bytes[..bytes.len() - 4];
        let mut reader = TraceReader::new(cut).unwrap();
        let mut rec = CycleRecord::default();
        let mut result = Ok(true);
        while matches!(result, Ok(true)) {
            result = reader.next_cycle(&mut rec);
        }
        assert_eq!(result, Err(TraceError::Truncated));
    }

    #[test]
    fn foreign_streams_are_rejected() {
        assert_eq!(
            TraceReader::new(&b"VCD \x01"[..]).unwrap_err(),
            TraceError::BadMagic
        );
        let mut future = Vec::from(MAGIC);
        crate::format::put_varint(&mut future, VERSION + 1);
        assert_eq!(
            TraceReader::new(future.as_slice()).unwrap_err(),
            TraceError::BadVersion { found: VERSION + 1 }
        );
    }

    #[test]
    fn corrupt_indices_are_rejected() {
        let net = BusNetwork::new(2, 2, 1, ConnectionScheme::Full).unwrap();
        let mut writer = TraceWriter::new(Vec::new(), &net, false);
        writer.record_cycle(
            1,
            1,
            0,
            [],
            [],
            [TraceGrant {
                bus: Some(5),
                memory: 0,
                processor: 0,
                wait: 0,
            }],
        );
        let bytes = writer.finish().unwrap();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let mut rec = CycleRecord::default();
        assert!(matches!(
            reader.next_cycle(&mut rec),
            Err(TraceError::Corrupt { .. })
        ));
    }
}
