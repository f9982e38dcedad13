//! The three workloads and their seeded request streams.
//!
//! Every client owns the keys of its parity (`key % 2 == client`) and sends
//! updates only to those, so each client's own sequential history is an
//! exact oracle for its keys. Gets may target any key.

use std::sync::Arc;

/// Requests per client between two quiescent boundaries.
pub const EPOCH_LEN: usize = 4096;
/// Requests per client in one epoch of the power-failure phase.
pub const FAILURE_EPOCH_LEN: usize = 64;
/// Closed-loop clients (one per CPU of the 2-CPU reference host).
pub const CLIENTS: usize = 2;

/// The structure a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// `tracking::RecoverableHashMap`.
    Map,
    /// `tracking::RecoverableList` (the paper's Fig. 4 structure).
    List,
}

/// Request type. The list's `find`/`insert`/`delete` map to get/put/remove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Remove,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Get, Op::Put, Op::Remove];

    pub fn idx(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Remove => "remove",
        }
    }
}

/// One request. `val` is the value a put binds (ignored by other ops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub key: u64,
    pub val: u64,
}

/// A named workload.
pub struct Spec {
    pub name: &'static str,
    pub structure: Structure,
    /// Keys are `1..=key_space`.
    pub key_space: u64,
    /// Keys present after the preload (a fixed sample of the key space).
    pub preload: u64,
    /// Requests of the setup's warm-up, which brings the structure to the
    /// shape the mix keeps it at.
    pub warmup_requests: usize,
    /// Request mix in per-mille; removes take the rest.
    pub get_permille: u64,
    pub put_permille: u64,
    /// Zipf exponent of the key choice (`None` = uniform).
    pub zipf_s: Option<f64>,
    /// Pool built with the recoverable allocator (`PoolCfg::reclaim`).
    pub reclaim: bool,
    /// Power failures after the timed window, one per short epoch.
    pub power_failures: usize,
    /// Upper bound on a run's bytes of setup state (pool sizing).
    pub setup_bytes: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "kv-read",
        structure: Structure::Map,
        key_space: 200_000,
        preload: 200_000,
        warmup_requests: 0,
        get_permille: 950,
        put_permille: 25,
        zipf_s: Some(0.99),
        reclaim: true,
        power_failures: 40,
        setup_bytes: 1 << 30,
    },
    Spec {
        name: "kv-churn",
        structure: Structure::Map,
        key_space: 40_000,
        preload: 20_000,
        warmup_requests: 400_000,
        get_permille: 100,
        put_permille: 450,
        zipf_s: None,
        reclaim: true,
        power_failures: 200,
        setup_bytes: 256 << 20,
    },
    Spec {
        name: "list-update",
        structure: Structure::List,
        key_space: 500,
        preload: 250,
        warmup_requests: 0,
        get_permille: 300,
        put_permille: 350,
        zipf_s: None,
        reclaim: false,
        power_failures: 1000,
        setup_bytes: 1 << 20,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The client that owns `key` (the only one that updates it).
pub fn owner(key: u64) -> usize {
    (key % CLIENTS as u64) as usize
}

/// The list stores keys only; a present key reads back as this value.
pub const LIST_VAL: u64 = 1;

/// The value a put of `key` binds: the key in the high half, so any value
/// read back can be checked against the key it was read under.
pub fn value_for(structure: Structure, key: u64, client: usize, seq: u64) -> u64 {
    match structure {
        Structure::Map => key << 32 | (client as u64) << 31 | (seq & 0x7fff_ffff),
        Structure::List => LIST_VAL,
    }
}

/// Could `v` have been bound to `key` by some put?
pub fn value_matches_key(structure: Structure, key: u64, v: u64) -> bool {
    match structure {
        Structure::Map => v >> 32 == key,
        Structure::List => v == LIST_VAL,
    }
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded generator (splitmix64 stream).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf sampler over ranks `0..n` (0 hottest): cumulative weights and a
/// binary search per draw.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, r: u64) -> u64 {
        let total = *self.cumulative.last().expect("zipf over an empty range");
        let u = (r >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c < u) as u64
    }
}

/// One client's request stream: a pure function of (workload, seed, client).
#[derive(Clone)]
pub struct Gen {
    spec: &'static Spec,
    client: usize,
    rng: Rng,
    zipf: Option<Arc<Zipf>>,
    seq: u64,
}

impl Gen {
    pub fn new(spec: &'static Spec, seed: u64, client: usize, zipf: Option<Arc<Zipf>>) -> Gen {
        Gen {
            spec,
            client,
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            zipf,
            seq: 0,
        }
    }

    /// The clients' streams for a run.
    pub fn for_run(spec: &'static Spec, seed: u64) -> Vec<Gen> {
        let zipf = spec.zipf_s.map(|s| Arc::new(Zipf::new(spec.key_space, s)));
        (0..CLIENTS)
            .map(|c| Gen::new(spec, seed, c, zipf.clone()))
            .collect()
    }

    pub fn next_req(&mut self) -> Req {
        let spec = self.spec;
        let r = self.rng.below(1000);
        let op = if r < spec.get_permille {
            Op::Get
        } else if r < spec.get_permille + spec.put_permille {
            Op::Put
        } else {
            Op::Remove
        };
        let mut key = match &self.zipf {
            Some(z) => z.sample(self.rng.next_u64()) + 1,
            None => self.rng.below(spec.key_space) + 1,
        };
        if op != Op::Get && owner(key) != self.client {
            key = if key < spec.key_space {
                key + 1
            } else {
                key - 1
            };
        }
        self.seq += 1;
        Req {
            op,
            key,
            val: value_for(spec.structure, key, self.client, self.seq),
        }
    }
}

/// The keys present after setup, in the order they are inserted. The data
/// set is fixed per workload; the run's seed drives the request stream and
/// the failure plan. (The table doubles when a put walks a chain longer
/// than its `max_chain`, so its footprint depends on insertion order; a
/// fixed data set keeps setup time and space comparable across runs.)
pub fn preload_keys(spec: &Spec) -> Vec<u64> {
    let mut keys: Vec<u64> = (1..=spec.key_space).collect();
    let mut rng = Rng::new(0x5EED_0F1A_7A00 ^ spec.key_space);
    for i in (1..keys.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    keys.truncate(spec.preload as usize);
    keys
}

/// A power failure planned for one epoch: which client raises it, and
/// before which of its requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failure {
    pub raiser: usize,
    pub before_req: usize,
}

/// The seeded failure of failure epoch `k`, placed past the epoch's first
/// requests so both clients are mid-stream.
pub fn failure(seed: u64, k: u64) -> Failure {
    let h = splitmix64(seed ^ 0x0B0E ^ k.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    Failure {
        raiser: ((h >> 32) % CLIENTS as u64) as usize,
        before_req: FAILURE_EPOCH_LEN / 8
            + ((h >> 40) % (FAILURE_EPOCH_LEN as u64 * 3 / 4)) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let spec = spec("kv-churn").unwrap();
        let a: Vec<Req> = {
            let mut g = Gen::for_run(spec, 7);
            (0..100).map(|_| g[1].next_req()).collect()
        };
        let b: Vec<Req> = {
            let mut g = Gen::for_run(spec, 7);
            (0..100).map(|_| g[1].next_req()).collect()
        };
        let c: Vec<Req> = {
            let mut g = Gen::for_run(spec, 8);
            (0..100).map(|_| g[1].next_req()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn updates_target_own_keys_in_range() {
        for spec in &WORKLOADS {
            let mut gens = Gen::for_run(spec, 3);
            for (c, g) in gens.iter_mut().enumerate() {
                for _ in 0..10_000 {
                    let r = g.next_req();
                    assert!((1..=spec.key_space).contains(&r.key));
                    if r.op != Op::Get {
                        assert_eq!(owner(r.key), c);
                    }
                    assert!(value_matches_key(spec.structure, r.key, r.val));
                }
            }
        }
    }

    #[test]
    fn preload_is_a_fixed_sample_without_repeats() {
        let spec = spec("kv-churn").unwrap();
        let mut keys = preload_keys(spec);
        assert_eq!(keys, preload_keys(spec));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, spec.preload);
    }
}
