//! Boundary-value profiling for value-prediction speculation.
//!
//! The paper uses a value-prediction profiler (à la Gabbay & Mendelson) to
//! find predictable values; Privateer applies it to values read at
//! iteration boundaries — e.g. dijkstra's work list, predicted empty at the
//! start of every outer iteration (§6.1).
//!
//! This profiler samples a configured set of memory locations at every
//! iteration start of one loop and reports those whose value is identical
//! at every boundary. The pipeline configures the locations from the
//! addresses through which blocking cross-iteration dependences flowed
//! (see [`crate::suite::DepInfo::addrs`]).

use crate::suite::LoopRef;
use privateer_ir::loops::LoopId;
use privateer_vm::hooks::{ExecCtx, Hooks};
use privateer_vm::AddressSpace;
use std::collections::BTreeMap;

/// One sampled location.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Target {
    addr: u64,
    size: u32,
    observed: Option<Vec<u8>>,
    stable: bool,
    samples: u64,
}

/// Samples configured byte ranges at each iteration start of one loop.
#[derive(Debug, Clone, Default)]
pub struct BoundaryValueProfiler {
    lp: Option<LoopRef>,
    targets: Vec<Target>,
    /// Scratch buffer each sample is read into.
    buf: Vec<u8>,
}

/// The profiler's verdict for one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictedValue {
    /// Address of the location.
    pub addr: u64,
    /// Width in bytes.
    pub size: u32,
    /// The stable bytes observed at every iteration boundary.
    pub bytes: Vec<u8>,
    /// Number of boundary samples supporting the prediction.
    pub samples: u64,
}

impl BoundaryValueProfiler {
    /// Profile `targets` (`(addr, size)` pairs) at each iteration start of
    /// `lp`.
    pub fn new(
        lp: LoopRef,
        targets: impl IntoIterator<Item = (u64, u32)>,
    ) -> BoundaryValueProfiler {
        BoundaryValueProfiler {
            lp: Some(lp),
            targets: targets
                .into_iter()
                .map(|(addr, size)| Target {
                    addr,
                    size,
                    observed: None,
                    stable: true,
                    samples: 0,
                })
                .collect(),
            buf: Vec::new(),
        }
    }

    /// Locations whose value was identical at every sampled boundary (with
    /// at least two samples, so a prediction is actually exercised).
    pub fn predictions(&self) -> Vec<PredictedValue> {
        self.targets
            .iter()
            .filter(|t| t.stable && t.samples >= 2)
            .filter_map(|t| {
                t.observed.as_ref().map(|bytes| PredictedValue {
                    addr: t.addr,
                    size: t.size,
                    bytes: bytes.clone(),
                    samples: t.samples,
                })
            })
            .collect()
    }

    /// Predictions as a map keyed by address.
    pub fn predictions_by_addr(&self) -> BTreeMap<u64, PredictedValue> {
        self.predictions()
            .into_iter()
            .map(|p| (p.addr, p))
            .collect()
    }
}

impl Hooks for BoundaryValueProfiler {
    fn on_loop_iter(
        &mut self,
        _ctx: &ExecCtx,
        func: privateer_ir::FuncId,
        loop_id: LoopId,
        _iter: u64,
        mem: &AddressSpace,
    ) {
        if self.lp != Some((func, loop_id)) {
            return;
        }
        for t in &mut self.targets {
            if !t.stable {
                continue;
            }
            self.buf.resize(t.size as usize, 0);
            mem.read_bytes(t.addr, &mut self.buf);
            match &t.observed {
                None => t.observed = Some(self.buf.clone()),
                Some(prev) if *prev == self.buf => {}
                Some(_) => t.stable = false,
            }
            t.samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_ir::FuncId;

    fn frame() -> (ExecCtx, AddressSpace) {
        (ExecCtx::default(), AddressSpace::new())
    }

    #[test]
    fn stable_value_predicted() {
        let lp = (FuncId::new(0), LoopId::new(0));
        let mut p = BoundaryValueProfiler::new(lp, [(0x1000, 8)]);
        let (ctx, mem) = frame();
        for i in 0..5 {
            p.on_loop_iter(&ctx, lp.0, lp.1, i, &mem);
        }
        let preds = p.predictions();
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].bytes, vec![0u8; 8]);
        assert_eq!(preds[0].samples, 5);
    }

    #[test]
    fn unstable_value_rejected() {
        let lp = (FuncId::new(0), LoopId::new(0));
        let mut p = BoundaryValueProfiler::new(lp, [(0x1000, 8)]);
        let (ctx, mut mem) = frame();
        p.on_loop_iter(&ctx, lp.0, lp.1, 0, &mem);
        mem.write_u64(0x1000, 7);
        p.on_loop_iter(&ctx, lp.0, lp.1, 1, &mem);
        assert!(p.predictions().is_empty());
    }

    #[test]
    fn single_sample_not_enough() {
        let lp = (FuncId::new(0), LoopId::new(0));
        let mut p = BoundaryValueProfiler::new(lp, [(0x1000, 4)]);
        let (ctx, mem) = frame();
        p.on_loop_iter(&ctx, lp.0, lp.1, 0, &mem);
        assert!(p.predictions().is_empty());
    }

    #[test]
    fn other_loops_ignored() {
        let lp = (FuncId::new(0), LoopId::new(0));
        let other = (FuncId::new(0), LoopId::new(1));
        let mut p = BoundaryValueProfiler::new(lp, [(0x1000, 8)]);
        let (ctx, mut mem) = frame();
        p.on_loop_iter(&ctx, lp.0, lp.1, 0, &mem);
        mem.write_u64(0x1000, 3);
        // A boundary of a different loop with a different value: ignored.
        p.on_loop_iter(&ctx, other.0, other.1, 0, &mem);
        mem.write_u64(0x1000, 0);
        p.on_loop_iter(&ctx, lp.0, lp.1, 1, &mem);
        assert_eq!(p.predictions().len(), 1);
    }
}
