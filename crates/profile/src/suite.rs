//! The combined profiling suite: pointer-to-object, lifetime, control,
//! flow-dependence and hotness profiling in one instrumented run (§4.1).

use crate::interval::IntervalMap;
use crate::names::{CallSite, ObjectName};
use privateer_ir::loops::LoopId;
use privateer_ir::{BlockId, FuncId, InstId, Module};
use privateer_vm::hooks::{AllocKind, ExecCtx, Hooks, LoopFrame};
use privateer_vm::interp::{Interp, ProgramImage};
use privateer_vm::runtime::BasicRuntime;
use privateer_vm::{AddressSpace, Trap};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

/// Identifies a loop module-wide.
pub type LoopRef = (FuncId, LoopId);

/// Per-loop execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub total_iters: u64,
    /// Instructions executed while the loop was active (inclusive of
    /// callees and nested loops) — the hotness measure.
    pub weight: u64,
}

/// Taken/not-taken counts for a conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Times the branch went to its `then` target.
    pub taken: u64,
    /// Times it went to its `else` target.
    pub not_taken: u64,
}

impl BranchStats {
    /// Fraction of executions that took the `then` target.
    pub fn bias(&self) -> f64 {
        let total = self.taken + self.not_taken;
        if total == 0 {
            0.5
        } else {
            self.taken as f64 / total as f64
        }
    }
}

/// A profiled cross-iteration memory flow dependence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepInfo {
    /// Times the dependence manifested.
    pub count: u64,
    /// Byte addresses through which it flowed (capped).
    pub addrs: BTreeSet<u64>,
    /// Whether `addrs` was truncated.
    pub addrs_overflow: bool,
}

const DEP_ADDR_CAP: usize = 64;

/// The collected profile, queryable by the classifier (§4.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// For each load/store instruction, the set of object names its pointer
    /// referenced (the pointer-to-object map).
    pub access_objects: BTreeMap<CallSite, BTreeSet<ObjectName>>,
    /// `(object, loop)` pairs where every instance of `object` allocated
    /// under `loop` was freed within its allocation iteration.
    pub short_lived: BTreeSet<(ObjectName, LoopRef)>,
    /// Objects observed allocated at least once under each loop.
    pub allocated_under: BTreeSet<(ObjectName, LoopRef)>,
    /// Cross-iteration memory flow dependences per loop.
    pub cross_deps: BTreeMap<LoopRef, BTreeMap<(CallSite, CallSite), DepInfo>>,
    /// Per-loop trip counts and hotness.
    pub loop_stats: BTreeMap<LoopRef, LoopStats>,
    /// Conditional-branch statistics.
    pub branch_stats: BTreeMap<(FuncId, BlockId), BranchStats>,
    /// Blocks that executed at least once.
    pub executed_blocks: BTreeSet<(FuncId, BlockId)>,
    /// Total instructions executed in the profiled run.
    pub total_insts: u64,
}

impl Profile {
    /// Objects referenced by the pointer of the access at `site`.
    pub fn objects_at(&self, site: CallSite) -> Option<&BTreeSet<ObjectName>> {
        self.access_objects.get(&site)
    }

    /// Whether `object` is short-lived with respect to `lp` (paper:
    /// `Profile.isShortLived(o, L)`).
    pub fn is_short_lived(&self, object: &ObjectName, lp: LoopRef) -> bool {
        self.short_lived.contains(&(object.clone(), lp))
    }

    /// Loops ordered by decreasing hotness weight.
    pub fn loops_by_weight(&self) -> Vec<(LoopRef, LoopStats)> {
        let mut v: Vec<_> = self.loop_stats.iter().map(|(&l, &s)| (l, s)).collect();
        v.sort_by(|a, b| b.1.weight.cmp(&a.1.weight).then(a.0.cmp(&b.0)));
        v
    }

    /// Whether a block never executed during profiling (a control-
    /// speculation candidate).
    pub fn block_unexecuted(&self, func: FuncId, bb: BlockId) -> bool {
        !self.executed_blocks.contains(&(func, bb))
    }

    /// The cross-iteration flow dependences of one loop.
    pub fn deps_of(&self, lp: LoopRef) -> impl Iterator<Item = (&(CallSite, CallSite), &DepInfo)> {
        self.cross_deps.get(&lp).into_iter().flatten()
    }
}

/// Bytes per page of the last-writer shadow.
const SHADOW_PAGE: u64 = 4096;

/// A snapshot of the dynamic loop stack, shared by every store and
/// allocation made while the stack is unchanged.
type Frames = Rc<[LoopFrame]>;

/// The last store to a byte: its site and the loops active at the time.
#[derive(Debug)]
struct WriterInfo {
    src: CallSite,
    frames: Frames,
}

/// A live allocation: its interned name and the loops active when it was
/// made.
#[derive(Debug)]
struct LiveObj {
    name: u32,
    alloc_frames: Frames,
}

/// Profiler state of one load, store or free instruction.
#[derive(Debug, Clone, Default)]
struct AccessSite {
    /// Interned names of the objects the site referenced, sorted; `None`
    /// until the site first executes.
    objects: Option<Vec<u32>>,
    /// The writer record this site's stores last used, reused while the
    /// loop stack snapshot is unchanged.
    writer: Option<Rc<WriterInfo>>,
}

/// Object names interned to dense `u32` ids.
#[derive(Debug, Default)]
struct Names {
    ids: HashMap<ObjectName, u32>,
    names: Vec<ObjectName>,
}

impl Names {
    fn intern(&mut self, name: ObjectName) -> u32 {
        let next = u32::try_from(self.names.len()).expect("fewer than 2^32 object names");
        let names = &mut self.names;
        *self.ids.entry(name).or_insert_with_key(|n| {
            names.push(n.clone());
            next
        })
    }

    fn name(&self, id: u32) -> ObjectName {
        self.names[id as usize].clone()
    }
}

/// The [`Hooks`] implementation that gathers a [`Profile`].
///
/// Every event does a constant number of map operations. Object names
/// are interned to `u32` ids; per-instruction, per-block and per-loop
/// state lives in dense per-function tables; the last writer of each byte
/// is kept in a shadow of 4 KiB pages, one hash per page an access
/// touches, and stores share one writer record per site while the loop
/// stack is unchanged. Loop hotness is the instruction count between a
/// loop frame's entry and exit. The ordered maps of [`Profile`] are built
/// once, in [`ProfileSuite::finish`].
#[derive(Debug)]
pub struct ProfileSuite {
    names: Names,
    objmap: IntervalMap<u32>,
    /// `[func][inst]`.
    sites: Vec<Vec<AccessSite>>,
    live: HashMap<u64, LiveObj>,
    allocated_under: HashSet<(u32, LoopRef)>,
    lifetime_violations: HashSet<(u32, LoopRef)>,
    /// The loop stack at the most recent store or allocation.
    frames: Frames,
    /// Shadow page number -> last writer of each byte of the page.
    last_writer: HashMap<u64, Box<[Option<Rc<WriterInfo>>]>>,
    cross_deps: HashMap<(LoopRef, CallSite, CallSite), DepInfo>,
    /// `[func][loop]`, grown as loops are first entered.
    loop_stats: Vec<Vec<LoopStats>>,
    /// Active loop frames, outermost first, with the instruction count at
    /// their entry.
    open_loops: Vec<(LoopRef, u64)>,
    /// `[func][block]`.
    branch_stats: Vec<Vec<BranchStats>>,
    /// `[func][block]`.
    executed_blocks: Vec<Vec<bool>>,
    total_insts: u64,
}

impl ProfileSuite {
    /// A suite with globals pre-registered in the object map.
    pub fn new(module: &Module, image: &ProgramImage) -> ProfileSuite {
        let funcs = &module.functions;
        let mut suite = ProfileSuite {
            names: Names::default(),
            objmap: IntervalMap::new(),
            sites: funcs
                .iter()
                .map(|f| vec![AccessSite::default(); f.insts.len()])
                .collect(),
            live: HashMap::new(),
            allocated_under: HashSet::new(),
            lifetime_violations: HashSet::new(),
            frames: Rc::from([]),
            last_writer: HashMap::new(),
            cross_deps: HashMap::new(),
            loop_stats: vec![Vec::new(); funcs.len()],
            open_loops: Vec::new(),
            branch_stats: funcs
                .iter()
                .map(|f| vec![BranchStats::default(); f.blocks.len()])
                .collect(),
            executed_blocks: funcs.iter().map(|f| vec![false; f.blocks.len()]).collect(),
            total_insts: 0,
        };
        for g in module.global_ids() {
            let addr = image.global_addrs[g.index()];
            let size = module.global(g).size.max(1);
            let id = suite.names.intern(ObjectName::Global(g));
            suite.objmap.insert(addr, addr + size, id);
        }
        suite
    }

    fn record_access(&mut self, func: FuncId, inst: InstId, addr: u64, size: u32) {
        let objects = self.sites[func.index()][inst.index()]
            .objects
            .get_or_insert_with(Vec::new);
        for (_, _, &id) in self.objmap.query_range(addr, addr + size.max(1) as u64) {
            if let Err(at) = objects.binary_search(&id) {
                objects.insert(at, id);
            }
        }
    }

    /// The current loop stack as a shared snapshot.
    fn frames(&mut self, ctx: &ExecCtx) -> Frames {
        if self.frames[..] != ctx.loop_stack[..] {
            self.frames = Rc::from(ctx.loop_stack.as_slice());
        }
        Rc::clone(&self.frames)
    }

    fn note_write(&mut self, ctx: &ExecCtx, src: CallSite, addr: u64, size: u32) {
        let frames = self.frames(ctx);
        let cached = &mut self.sites[src.0.index()][src.1.index()].writer;
        let w = match cached {
            Some(w) if Rc::ptr_eq(&w.frames, &frames) => Rc::clone(w),
            _ => Rc::clone(cached.insert(Rc::new(WriterInfo { src, frames }))),
        };
        for (page, offs) in shadow_pages(addr, addr + size as u64) {
            let slots = self
                .last_writer
                .entry(page)
                .or_insert_with(|| vec![None; SHADOW_PAGE as usize].into_boxed_slice());
            for slot in &mut slots[offs] {
                *slot = Some(Rc::clone(&w));
            }
        }
    }

    fn note_flow(&mut self, ctx: &ExecCtx, dst: CallSite, addr: u64, size: u32) {
        if ctx.loop_stack.is_empty() {
            return; // no loop to carry a dependence
        }
        for (page, offs) in shadow_pages(addr, addr + size as u64) {
            let Some(slots) = self.last_writer.get(&page) else {
                continue;
            };
            let mut b = page * SHADOW_PAGE + offs.start as u64;
            for run in slots[offs].chunk_by(same_writer) {
                let bytes = b..b + run.len() as u64;
                b = bytes.end;
                if let Some(w) = &run[0] {
                    credit_flow(&mut self.cross_deps, &ctx.loop_stack, w, dst, bytes);
                }
            }
        }
    }

    fn note_dealloc(&mut self, ctx: &ExecCtx, addr: u64) {
        if let Some(obj) = self.live.remove(&addr) {
            // Short-lived w.r.t. loop L iff freed in the same iteration of
            // the same invocation in which it was allocated.
            for af in obj.alloc_frames.iter() {
                if !ctx.loop_stack.contains(af) {
                    self.lifetime_violations
                        .insert((obj.name, (af.func, af.loop_id)));
                }
            }
            self.objmap.remove_at(addr);
        }
    }

    fn loop_mut(&mut self, (func, l): LoopRef) -> &mut LoopStats {
        let stats = &mut self.loop_stats[func.index()];
        if stats.len() <= l.index() {
            stats.resize(l.index() + 1, LoopStats::default());
        }
        &mut stats[l.index()]
    }

    /// Credit a loop frame that was entered at instruction count `start`.
    fn close_loop(&mut self, lp: LoopRef, start: u64) {
        let now = self.total_insts;
        self.loop_mut(lp).weight += now - start;
    }

    /// Finalize into a queryable [`Profile`].
    pub fn finish(mut self) -> Profile {
        // Frames still open when the run stopped count up to now.
        while let Some((lp, start)) = self.open_loops.pop() {
            self.close_loop(lp, start);
        }
        // Never-freed objects are not short-lived for any enclosing loop.
        for obj in self.live.values() {
            for af in obj.alloc_frames.iter() {
                self.lifetime_violations
                    .insert((obj.name, (af.func, af.loop_id)));
            }
        }
        let names = &self.names;
        let named = |&(n, lp): &(u32, LoopRef)| (names.name(n), lp);
        let short_lived = self
            .allocated_under
            .iter()
            .filter(|k| !self.lifetime_violations.contains(k))
            .map(named)
            .collect();
        let mut cross_deps: BTreeMap<LoopRef, BTreeMap<(CallSite, CallSite), DepInfo>> =
            BTreeMap::new();
        for ((lp, src, dst), dep) in self.cross_deps {
            cross_deps.entry(lp).or_default().insert((src, dst), dep);
        }
        Profile {
            access_objects: entries(&self.sites)
                .filter_map(|(f, i, s)| {
                    let objects = s.objects.as_ref()?;
                    Some((
                        (f, InstId::new(i)),
                        objects.iter().map(|&n| names.name(n)).collect(),
                    ))
                })
                .collect(),
            short_lived,
            allocated_under: self.allocated_under.iter().map(named).collect(),
            cross_deps,
            loop_stats: entries(&self.loop_stats)
                .filter(|(_, _, s)| s.invocations > 0)
                .map(|(f, l, &s)| ((f, LoopId::new(l)), s))
                .collect(),
            branch_stats: entries(&self.branch_stats)
                .filter(|(_, _, s)| s.taken + s.not_taken > 0)
                .map(|(f, b, &s)| ((f, BlockId::new(b)), s))
                .collect(),
            executed_blocks: entries(&self.executed_blocks)
                .filter(|&(_, _, &hit)| hit)
                .map(|(f, b, _)| (f, BlockId::new(b)))
                .collect(),
            total_insts: self.total_insts,
        }
    }
}

/// Splits `[addr, end)` at shadow page boundaries into `(page number,
/// byte offsets within the page)`.
fn shadow_pages(addr: u64, end: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    (addr / SHADOW_PAGE..end.div_ceil(SHADOW_PAGE)).map(move |page| {
        let base = page * SHADOW_PAGE;
        let lo = addr.max(base) - base;
        let hi = end.min(base + SHADOW_PAGE) - base;
        (page, lo as usize..hi as usize)
    })
}

fn same_writer(a: &Option<Rc<WriterInfo>>, b: &Option<Rc<WriterInfo>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Rc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Account a read at `dst` of `bytes`, all last written by `w`.
fn credit_flow(
    deps: &mut HashMap<(LoopRef, CallSite, CallSite), DepInfo>,
    loop_stack: &[LoopFrame],
    w: &WriterInfo,
    dst: CallSite,
    bytes: Range<u64>,
) {
    // For each loop active at both the write and the read, in the same
    // invocation: earlier iteration => loop-carried flow dep.
    for rf in loop_stack {
        let Some(wf) = w
            .frames
            .iter()
            .find(|wf| wf.func == rf.func && wf.loop_id == rf.loop_id)
        else {
            continue;
        };
        if wf.invocation == rf.invocation && wf.iter < rf.iter {
            let dep = deps.entry(((rf.func, rf.loop_id), w.src, dst)).or_default();
            dep.count += bytes.end - bytes.start;
            for b in bytes.clone() {
                if dep.addrs.len() < DEP_ADDR_CAP {
                    dep.addrs.insert(b);
                } else {
                    dep.addrs_overflow = true;
                    break;
                }
            }
        }
    }
}

/// Every entry of per-function tables, as `(function, index, entry)`.
fn entries<T>(tables: &[Vec<T>]) -> impl Iterator<Item = (FuncId, usize, &T)> {
    tables.iter().enumerate().flat_map(|(f, table)| {
        table
            .iter()
            .enumerate()
            .map(move |(i, e)| (FuncId::new(f), i, e))
    })
}

impl Hooks for ProfileSuite {
    fn on_load(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        self.record_access(func, inst, addr, size);
        self.note_flow(ctx, (func, inst), addr, size);
    }

    fn on_store(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        self.record_access(func, inst, addr, size);
        self.note_write(ctx, (func, inst), addr, size);
    }

    fn on_alloc(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u64,
        _kind: AllocKind,
    ) {
        let name = self.names.intern(ObjectName::Site {
            site: (func, inst),
            path: ctx.call_path(),
        });
        self.objmap.insert(addr, addr + size.max(1), name);
        let frames = self.frames(ctx);
        for f in frames.iter() {
            self.allocated_under.insert((name, (f.func, f.loop_id)));
        }
        self.live.insert(
            addr,
            LiveObj {
                name,
                alloc_frames: frames,
            },
        );
    }

    fn on_free(&mut self, ctx: &ExecCtx, func: FuncId, inst: InstId, addr: u64) {
        // Free sites participate in the pointer-to-object map too — the
        // replace-allocation pass needs to know which objects a `free`
        // releases (§4.4).
        self.record_access(func, inst, addr, 1);
        self.note_dealloc(ctx, addr);
    }

    fn on_cond_branch(&mut self, _ctx: &ExecCtx, func: FuncId, block: BlockId, taken: bool) {
        let e = &mut self.branch_stats[func.index()][block.index()];
        if taken {
            e.taken += 1;
        } else {
            e.not_taken += 1;
        }
    }

    fn on_loop_enter(&mut self, _ctx: &ExecCtx, func: FuncId, loop_id: LoopId) {
        self.loop_mut((func, loop_id)).invocations += 1;
        self.open_loops.push(((func, loop_id), self.total_insts));
    }

    fn on_loop_iter(
        &mut self,
        _ctx: &ExecCtx,
        func: FuncId,
        loop_id: LoopId,
        _iter: u64,
        _mem: &AddressSpace,
    ) {
        self.loop_mut((func, loop_id)).total_iters += 1;
    }

    fn on_loop_exit(&mut self, _ctx: &ExecCtx, func: FuncId, loop_id: LoopId, _trips: u64) {
        if let Some((lp, start)) = self.open_loops.pop() {
            debug_assert_eq!(lp, (func, loop_id), "loop exits nest with entries");
            self.close_loop(lp, start);
        }
    }

    fn on_block(&mut self, _ctx: &ExecCtx, func: FuncId, block: BlockId) {
        self.executed_blocks[func.index()][block.index()] = true;
    }

    fn on_inst(&mut self, _ctx: &ExecCtx, _func: FuncId) {
        self.total_insts += 1;
    }
}

/// Run `main` under the full profiling suite.
///
/// Returns the profile and the program's output bytes (callers use the
/// output to cross-check against reference runs).
///
/// # Errors
///
/// Propagates any [`Trap`] from execution.
pub fn profile_module(module: &Module, image: &ProgramImage) -> Result<(Profile, Vec<u8>), Trap> {
    let suite = ProfileSuite::new(module, image);
    let mut interp = Interp::new(module, image, suite, BasicRuntime::strict());
    interp.run_main()?;
    let out = interp.rt.take_output();
    Ok((interp.hooks.finish(), out))
}
