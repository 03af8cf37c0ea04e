//! The benchmark's workloads and the seeded inputs behind them.

use privateer_ir::Module;
use privateer_workloads::{alvinn, blackscholes, dijkstra, md5, swaptions};

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The small inputs the self-test uses.
    Train,
    /// The evaluation inputs of the figure binaries.
    Bench,
}

/// A benchmark workload: one or more programs run back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// MiBench dijkstra: interpreter- and profiler-bound, engine nearly idle.
    Dijkstra,
    /// SPEC 052.alvinn: ten spawn/joins, reductions, heavy privacy traffic.
    Alvinn,
    /// blackscholes + swaptions + enc-md5 under injected misspeculation.
    MisspecMix,
}

/// The injected misspeculation rate per iteration of `misspec_mix`.
pub const MISSPEC_RATE: f64 = 0.05;

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::Dijkstra,
        WorkloadId::Alvinn,
        WorkloadId::MisspecMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Dijkstra => "dijkstra",
            WorkloadId::Alvinn => "alvinn",
            WorkloadId::MisspecMix => "misspec_mix",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The injected misspeculation rate the workload runs with.
    pub fn inject_rate(self) -> f64 {
        match self {
            WorkloadId::MisspecMix => MISSPEC_RATE,
            _ => 0.0,
        }
    }

    /// The workload's programs at `scale`. Without a seed the inputs use
    /// the figure binaries' seeds; with one, every program's input seed is
    /// derived from it (sizes stay fixed, so only the data changes).
    pub fn programs(self, scale: Scale, seed: Option<u64>) -> Vec<Spec> {
        let bench = scale == Scale::Bench;
        let pick = |default: u64, salt: u64| seed.map_or(default, |s| derive_seed(s, salt));
        match self {
            // dijkstra runs at its "ref" size rather than the figure
            // binaries' n = 96: at n = 96 one compile takes 4-7 s, a run
            // fits too few samples, and its medians spread past the bound
            // on a shared host. At n = 48 the work is an eighth, with the
            // same shape (one invocation, an idle engine).
            WorkloadId::Dijkstra => vec![Spec::Dijkstra(if bench {
                dijkstra::Params {
                    n: 48,
                    seed: pick(12, 1),
                }
            } else {
                dijkstra::Params {
                    seed: pick(11, 1),
                    ..dijkstra::Params::train()
                }
            })],
            WorkloadId::Alvinn => vec![Spec::Alvinn(if bench {
                alvinn::Params {
                    inputs: 16,
                    hidden: 10,
                    outputs: 4,
                    examples: 160,
                    epochs: 10,
                    seed: pick(32, 2),
                }
            } else {
                alvinn::Params {
                    seed: pick(31, 2),
                    ..alvinn::Params::train()
                }
            })],
            WorkloadId::MisspecMix => vec![
                Spec::Blackscholes(if bench {
                    blackscholes::Params {
                        options: 512,
                        runs: 32,
                        seed: pick(22, 3),
                    }
                } else {
                    blackscholes::Params {
                        seed: pick(21, 3),
                        ..blackscholes::Params::train()
                    }
                }),
                Spec::Swaptions(if bench {
                    swaptions::Params {
                        swaptions: 96,
                        trials: 16,
                        steps: 24,
                        seed: pick(52, 4),
                    }
                } else {
                    swaptions::Params {
                        seed: pick(51, 4),
                        ..swaptions::Params::train()
                    }
                }),
                Spec::Md5(if bench {
                    md5::Params {
                        messages: 160,
                        msg_len: 120,
                        seed: pick(42, 5),
                    }
                } else {
                    md5::Params {
                        seed: pick(41, 5),
                        ..md5::Params::train()
                    }
                }),
            ],
        }
    }
}

/// A program's input seed from the benchmark seed: splitmix64 of the
/// seed and a per-program salt, forced odd because the generators'
/// xorshift state must not be zero.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// One program's generator parameters.
#[derive(Debug, Clone)]
pub enum Spec {
    /// MiBench dijkstra.
    Dijkstra(dijkstra::Params),
    /// SPEC 052.alvinn.
    Alvinn(alvinn::Params),
    /// PARSEC blackscholes.
    Blackscholes(blackscholes::Params),
    /// PARSEC swaptions.
    Swaptions(swaptions::Params),
    /// Trimaran enc-md5.
    Md5(md5::Params),
}

impl Spec {
    /// The program's name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Spec::Dijkstra(_) => "dijkstra",
            Spec::Alvinn(_) => "052.alvinn",
            Spec::Blackscholes(_) => "blackscholes",
            Spec::Swaptions(_) => "swaptions",
            Spec::Md5(_) => "enc-md5",
        }
    }

    /// Build the program's IR module.
    pub fn build(&self) -> Module {
        match self {
            Spec::Dijkstra(p) => dijkstra::build(p),
            Spec::Alvinn(p) => alvinn::build(p),
            Spec::Blackscholes(p) => blackscholes::build(p),
            Spec::Swaptions(p) => swaptions::build(p),
            Spec::Md5(p) => md5::build(p),
        }
    }

    /// The expected output, computed by the workload's plain-Rust oracle.
    pub fn reference(&self) -> Vec<u8> {
        match self {
            Spec::Dijkstra(p) => dijkstra::reference_output(p),
            Spec::Alvinn(p) => alvinn::reference_output(p),
            Spec::Blackscholes(p) => blackscholes::reference_output(p),
            Spec::Swaptions(p) => swaptions::reference_output(p),
            Spec::Md5(p) => md5::reference_output(p),
        }
    }
}
