//! Spans the benchmark records around its calls into each layer (traced
//! runs only), kept in memory and written out when the run ends.
//!
//! Span tree:
//! * `request` → `op.get` | `op.put` | `op.remove` (the map or list call);
//! * `boundary` → `barrier.wait`, `palloc.drain`, `barrier.leave`;
//! * `reboot` → `palloc.recover_allocator`, `attach`, `recover.<client>`,
//!   `first_get`.
//!
//! Times are nanoseconds from the window's start. A span's self time is
//! its duration minus the time its children cover.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::service::{Reboot, WindowOut};
use crate::workload::Op;

/// One request and the structure call inside it.
#[derive(Clone, Copy)]
pub struct ReqSpan {
    pub op: Op,
    pub start: u64,
    pub op_start: u64,
    pub op_end: u64,
    pub end: u64,
}

/// One client's quiescent boundary.
#[derive(Clone, Copy)]
pub struct BoundarySpan {
    pub client: usize,
    pub start: u64,
    pub wait_end: u64,
    pub drain_end: u64,
    pub end: u64,
}

impl BoundarySpan {
    pub fn wait_ns(&self) -> u64 {
        (self.wait_end - self.start) + (self.end - self.drain_end)
    }

    pub fn drain_ns(&self) -> u64 {
        self.drain_end - self.wait_end
    }
}

impl Reboot {
    /// Time covered by the reboot's child spans.
    pub fn children_ns(&self) -> u64 {
        self.alloc_ns
            + self.attach_ns
            + self.recover_ns.iter().map(|r| r.1).sum::<u64>()
            + self.first_get_ns
    }
}

/// Request spans written per client; the rest stay in memory only (they
/// still feed every per-layer metric).
const WRITTEN_REQUESTS_PER_CLIENT: usize = 20_000;

struct Writer {
    out: String,
    next_id: u64,
}

impl Writer {
    fn span(
        &mut self,
        parent: Option<u64>,
        request: Option<u64>,
        name: &str,
        client: Option<usize>,
        start: u64,
        end: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        let client = client.map_or("null".to_string(), |c| c.to_string());
        let request = request.unwrap_or(id);
        writeln!(
            self.out,
            "{{\"span\":{id},\"parent\":{parent},\"request\":{request},\"name\":\"{name}\",\"client\":{client},\"start_ns\":{start},\"end_ns\":{end}}}"
        )
        .expect("writing to a String");
        id
    }
}

/// Writes the traced window's spans as JSON lines; returns how many
/// request spans were left out of the file.
pub fn write_spans(path: &Path, w: &WindowOut) -> std::io::Result<usize> {
    let mut wr = Writer {
        out: String::new(),
        next_id: 0,
    };
    let mut omitted = 0;
    for (c, client) in w.clients.iter().enumerate() {
        for s in client.req_spans.iter().take(WRITTEN_REQUESTS_PER_CLIENT) {
            let id = wr.span(None, None, "request", Some(c), s.start, s.end);
            let name = format!("op.{}", s.op.name());
            wr.span(Some(id), Some(id), &name, Some(c), s.op_start, s.op_end);
        }
        omitted += client
            .req_spans
            .len()
            .saturating_sub(WRITTEN_REQUESTS_PER_CLIENT);
        for b in &client.boundaries {
            let id = wr.span(None, None, "boundary", Some(b.client), b.start, b.end);
            wr.span(
                Some(id),
                Some(id),
                "barrier.wait",
                Some(b.client),
                b.start,
                b.wait_end,
            );
            wr.span(
                Some(id),
                Some(id),
                "palloc.drain",
                Some(b.client),
                b.wait_end,
                b.drain_end,
            );
            wr.span(
                Some(id),
                Some(id),
                "barrier.leave",
                Some(b.client),
                b.drain_end,
                b.end,
            );
        }
    }
    for r in &w.reboots {
        let id = wr.span(
            None,
            None,
            "reboot",
            None,
            r.start_ns,
            r.start_ns + r.total_ns,
        );
        let mut t = r.start_ns;
        let mut child = |wr: &mut Writer, name: &str, client: Option<usize>, ns: u64| {
            wr.span(Some(id), Some(id), name, client, t, t + ns);
            t += ns;
        };
        child(&mut wr, "palloc.recover_allocator", None, r.alloc_ns);
        child(&mut wr, "attach", None, r.attach_ns);
        for &(c, ns) in &r.recover_ns {
            child(&mut wr, &format!("recover.{c}"), Some(c), ns);
        }
        let first_get_start = r.start_ns + r.total_ns - r.first_get_ns;
        wr.span(
            Some(id),
            Some(id),
            "first_get",
            Some(0),
            first_get_start,
            first_get_start + r.first_get_ns,
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(wr.out.as_bytes())?;
    f.sync_all()?;
    Ok(omitted)
}
