//! The streaming trace encoder the simulator drives.

use crate::format::{
    put_scheme, put_varint, FLAG_RESUBMISSION, MAGIC, TAG_CYCLE, TAG_FOOTER, VERSION,
};
use mbus_topology::BusNetwork;
use std::io::{self, Write};

/// How many buffered bytes trigger a flush to the underlying sink. One
/// cycle record is tens of bytes, so the hot loop almost never touches the
/// sink (or the allocator: the buffer is reserved once and reused).
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// One served request as the trace records it. Mirrors the simulator's
/// grant plus the wait age its `waits` vector carries alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGrant {
    /// The carrying bus (`None` for the crossbar, which has no shared
    /// buses).
    pub bus: Option<usize>,
    /// The memory module accessed.
    pub memory: usize,
    /// The processor whose request completed.
    pub processor: usize,
    /// Cycles the request waited before this grant (0 = served on the
    /// cycle it was issued; nonzero only under resubmission).
    pub wait: u64,
}

/// Streaming encoder for the `MBT1` format (see `crate::format`).
///
/// Write errors are *deferred*: the hot loop calls
/// [`TraceWriter::record_cycle`] without a `Result`, and any sink failure
/// is reported once by [`TraceWriter::finish`]. After an error the writer
/// goes quiescent (further records are dropped), so a full disk costs one
/// failed run, not a panic mid-simulation.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
    cycles: u64,
    grants: u64,
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace for `net`, writing the header into an internal
    /// buffer (flushed to `sink` as records accumulate).
    pub fn new(sink: W, net: &BusNetwork, resubmission: bool) -> Self {
        Self::with_dimensions(
            sink,
            net.processors(),
            net.memories(),
            net.buses(),
            net.scheme(),
            resubmission,
        )
    }

    /// Starts a trace from raw header dimensions, for producers whose
    /// "bus" axis is not a flat `BusNetwork` — the fabric simulator
    /// records per-**link** grants, and its link count may exceed `M`
    /// (which [`BusNetwork::new`] would reject). Readers of such traces
    /// fall back gracefully where the rebuilt network would be needed.
    pub fn with_dimensions(
        sink: W,
        processors: usize,
        memories: usize,
        buses: usize,
        scheme: &mbus_topology::ConnectionScheme,
        resubmission: bool,
    ) -> Self {
        let mut buf = Vec::with_capacity(2 * FLUSH_THRESHOLD);
        buf.extend_from_slice(&MAGIC);
        put_varint(&mut buf, VERSION);
        put_varint(&mut buf, processors as u64);
        put_varint(&mut buf, memories as u64);
        put_varint(&mut buf, buses as u64);
        put_scheme(&mut buf, scheme);
        put_varint(&mut buf, if resubmission { FLAG_RESUBMISSION } else { 0 });
        Self {
            sink,
            buf,
            cycles: 0,
            grants: 0,
            error: None,
        }
    }

    /// Appends one cycle record.
    ///
    /// `failed` lists the failed bus indices this cycle, `requested` the
    /// `(memory, queued requesters)` pairs for memories with at least one
    /// requester *after* unreachable filtering, and `grants` the served
    /// requests. All three may be empty.
    pub fn record_cycle(
        &mut self,
        issued: u64,
        active: u64,
        unreachable: u64,
        failed: impl IntoIterator<Item = usize>,
        requested: impl IntoIterator<Item = (usize, u64)>,
        grants: impl IntoIterator<Item = TraceGrant>,
    ) {
        if self.error.is_some() {
            return;
        }
        put_varint(&mut self.buf, TAG_CYCLE);
        put_varint(&mut self.buf, issued);
        put_varint(&mut self.buf, active);
        put_varint(&mut self.buf, unreachable);
        for bus in failed {
            put_varint(&mut self.buf, bus as u64 + 1);
        }
        put_varint(&mut self.buf, 0);
        for (memory, count) in requested {
            put_varint(&mut self.buf, memory as u64 + 1);
            put_varint(&mut self.buf, count);
        }
        put_varint(&mut self.buf, 0);
        for grant in grants {
            let bus_tag = match grant.bus {
                None => 1,
                Some(bus) => bus as u64 + 2,
            };
            put_varint(&mut self.buf, bus_tag);
            put_varint(&mut self.buf, grant.memory as u64);
            put_varint(&mut self.buf, grant.processor as u64);
            put_varint(&mut self.buf, grant.wait);
            self.grants += 1;
        }
        put_varint(&mut self.buf, 0);
        self.cycles += 1;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.drain();
        }
    }

    /// Writes the footer, flushes the sink, and returns it.
    ///
    /// # Errors
    ///
    /// The first deferred write error, or any error writing the footer.
    pub fn finish(mut self) -> io::Result<W> {
        put_varint(&mut self.buf, TAG_FOOTER);
        put_varint(&mut self.buf, self.cycles);
        put_varint(&mut self.buf, self.grants);
        self.drain();
        if let Some(err) = self.error {
            return Err(err);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Pushes the buffer to the sink, capturing (not propagating) errors.
    fn drain(&mut self) {
        if self.error.is_none() {
            if let Err(err) = self.sink.write_all(&self.buf) {
                self.error = Some(err);
            }
        }
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_topology::ConnectionScheme;

    /// A sink that fails after `ok` bytes.
    struct Flaky {
        ok: usize,
        written: usize,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.ok {
                return Err(io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn net() -> BusNetwork {
        BusNetwork::new(4, 4, 2, ConnectionScheme::Full).unwrap()
    }

    #[test]
    fn header_and_footer_frame_the_stream() {
        let writer = TraceWriter::new(Vec::new(), &net(), false);
        let bytes = writer.finish().unwrap();
        assert_eq!(&bytes[..4], b"MBT1");
        // version 1, n=4, m=4, b=2, scheme full (0), flags 0, footer 0 0 0.
        assert_eq!(&bytes[4..], &[1, 4, 4, 2, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sink_errors_surface_at_finish_not_mid_run() {
        let mut writer = TraceWriter::new(Flaky { ok: 0, written: 0 }, &net(), false);
        for _ in 0..10_000 {
            writer.record_cycle(
                4,
                4,
                0,
                [],
                [(0, 2)],
                [TraceGrant {
                    bus: Some(0),
                    memory: 0,
                    processor: 1,
                    wait: 0,
                }],
            );
        }
        let recorded = writer.cycles;
        assert!(
            recorded > 0 && recorded < 10_000,
            "writer goes quiescent after the first failed flush (recorded {recorded})"
        );
        assert!(writer.finish().is_err(), "deferred error surfaces");
    }
}
