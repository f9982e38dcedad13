//! What the numbers were measured on.

/// Host description recorded with every result.
pub struct Host {
    pub cpus: usize,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
    /// The write-back instruction the `Clflush` backend issues here.
    pub flush: &'static str,
    pub rustc: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let (l2_bytes, l3_bytes) = cache_sizes();
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes,
            l3_bytes,
            flush: flush_insn(),
            rustc: env!("SVCBENCH_RUSTC_VERSION"),
        }
    }

    /// The host as one JSON object.
    pub fn json(&self) -> String {
        let size = |b: Option<u64>| b.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"cpus\":{},\"l2_bytes\":{},\"l3_bytes\":{},\"flush\":\"{}\",\"rustc\":\"{}\",\"memory\":\"DRAM; pwb is a real {} and psync an sfence, not Optane\"}}",
            self.cpus,
            size(self.l2_bytes),
            size(self.l3_bytes),
            self.flush,
            self.rustc,
            self.flush
        )
    }
}

/// The instruction `pmem`'s `Clflush` backend selects: the same CPUID test
/// (leaf 7, EBX bit 24 = CLWB, bit 23 = CLFLUSHOPT).
#[cfg(target_arch = "x86_64")]
fn flush_insn() -> &'static str {
    let ebx = core::arch::x86_64::__cpuid_count(7, 0).ebx;
    if ebx & (1 << 24) != 0 {
        "clwb"
    } else if ebx & (1 << 23) != 0 {
        "clflushopt"
    } else {
        "clflush"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn flush_insn() -> &'static str {
    "fence"
}

/// Per-instance L2 and L3 sizes from CPUID leaf 4 (deterministic cache
/// parameters); `None` where the leaf does not describe the level.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use core::arch::x86_64::__cpuid_count;
    if __cpuid_count(0, 0).eax < 4 {
        return (None, None);
    }
    let (mut l2, mut l3) = (None, None);
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
        let line = (r.ebx & 0xfff) as u64 + 1;
        let sets = r.ecx as u64 + 1;
        let bytes = ways * partitions * line * sets;
        match level {
            2 => l2 = Some(bytes),
            3 => l3 = Some(bytes),
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}
