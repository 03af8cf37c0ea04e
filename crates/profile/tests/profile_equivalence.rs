//! Oracle test: the profiling suite produces exactly the `Profile` of the
//! retained per-byte reference suite, field for field, on every workload
//! and on generated loop programs that stress its shortcuts (recursion
//! inside a loop, `ret` from inside a loop, allocation address reuse, and
//! accesses that straddle a shadow page).

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, FuncId, Module, Type, Value};
use privateer_profile::{profile_module, reference};
use privateer_vm::load_module;
use privateer_workloads::util::{for_loop, if_then};
use privateer_workloads::{alvinn, blackscholes, dijkstra, md5, swaptions};
use proptest::prelude::*;

fn assert_equivalent(name: &str, m: &Module) {
    let image = load_module(m);
    let (got, got_out) = profile_module(m, &image).expect("profiled run");
    let (want, want_out) = reference::profile_module(m, &image).expect("reference run");
    assert_eq!(got_out, want_out, "{name}: program output");
    // Field by field first, for a readable failure.
    assert_eq!(got.total_insts, want.total_insts, "{name}: total_insts");
    assert_eq!(got.loop_stats, want.loop_stats, "{name}: loop_stats");
    assert_eq!(
        got.executed_blocks, want.executed_blocks,
        "{name}: executed_blocks"
    );
    assert_eq!(got.branch_stats, want.branch_stats, "{name}: branch_stats");
    assert_eq!(
        got.access_objects, want.access_objects,
        "{name}: access_objects"
    );
    assert_eq!(
        got.allocated_under, want.allocated_under,
        "{name}: allocated_under"
    );
    assert_eq!(got.short_lived, want.short_lived, "{name}: short_lived");
    assert_eq!(got.cross_deps, want.cross_deps, "{name}: cross_deps");
    assert_eq!(got, want, "{name}: profile");
}

#[test]
fn workloads_at_train_scale() {
    let programs = [
        ("dijkstra", dijkstra::build(&dijkstra::Params::train())),
        (
            "blackscholes",
            blackscholes::build(&blackscholes::Params::train()),
        ),
        ("swaptions", swaptions::build(&swaptions::Params::train())),
        ("alvinn", alvinn::build(&alvinn::Params::train())),
        ("enc-md5", md5::build(&md5::Params::train())),
    ];
    for (name, m) in &programs {
        assert_equivalent(name, m);
    }
}

/// Shape of one generated program.
#[derive(Debug, Clone, Copy)]
struct Shape {
    outer: i64,
    /// Bytes per straddling store/load: 4 or 8.
    width: u64,
    /// Offset of the first straddling store from the start of `big`,
    /// relative to its first page boundary.
    disp: i64,
    stride: u64,
    count: i64,
    /// Offset of the first straddling load relative to the first store.
    read_shift: i64,
    depth: i64,
    needle: i64,
    msize: i64,
}

const MAIN: usize = 0;
const REC: usize = 1;
const FIND: usize = 2;
const MAKE: usize = 3;
const PAGE: i64 = 4096;

/// ```c
/// char big[3 * 4096];   // first global: page-aligned
/// long acc, cells[8];
/// void *make(long n) { return malloc(n); }
/// void rec(long depth, long k) {
///     long tmp[2];                              // stack slot, reused
///     for (j = 0; j < 3; j++) {
///         acc += j; tmp[0] = acc;
///         long *p = make(16); *p = k; free(p);  // short-lived per depth
///         if (depth > 0) rec(depth - 1, k);     // the loop is re-entered
///     }
/// }
/// long find(long needle) {
///     for (j = 0; j < 8; j++) if (cells[j] == needle) return j;
///     return -1;
/// }
/// main: for (i = 0; i < outer; i++) {
///     // The stores move up one stride per iteration, so the loads also
///     // see bytes stored by earlier iterations.
///     for (k..count) store (i + k) as width bytes at big + 4096 + disp + (i + k) * stride;
///     for (k..count) acc += load width bytes at big + 4096 + disp + read_shift + k * stride;
///     p = make(msize); *p = i; acc += *p; free(p);
///     q = make(msize); *q = i; if (i % 2 == 0) free(q);  // reuse, leaks
///     rec(depth, i);
///     cells[i % 8] = find(needle);
/// }
/// print(acc);
/// ```
fn build(s: &Shape) -> Module {
    let mut m = Module::new("equiv");
    let big = m.add_global("big", 3 * PAGE as u64);
    let acc = m.add_global("acc", 8);
    let cells = m.add_global("cells", 64);
    let (rec, find, make) = (FuncId::new(REC), FuncId::new(FIND), FuncId::new(MAKE));
    let ty = if s.width == 4 { Type::I32 } else { Type::I64 };

    let mut b = FunctionBuilder::new("main", vec![], None);
    for_loop(
        &mut b,
        Value::const_i64(0),
        Value::const_i64(s.outer),
        |b, i| {
            let base = PAGE + s.disp;
            for_loop(b, Value::const_i64(0), Value::const_i64(s.count), |b, k| {
                let v = b.add(Type::I64, i, k);
                let a = b.gep(Value::Global(big), v, s.stride, base);
                let v = if ty == Type::I32 {
                    b.trunc(v, Type::I32)
                } else {
                    v
                };
                b.store(ty, v, a);
            });
            for_loop(b, Value::const_i64(0), Value::const_i64(s.count), |b, k| {
                let a = b.gep(Value::Global(big), k, s.stride, base + s.read_shift);
                let v = b.load(ty, a);
                let v = if ty == Type::I32 {
                    b.sext(v, Type::I64)
                } else {
                    v
                };
                let old = b.load(Type::I64, Value::Global(acc));
                let sum = b.add(Type::I64, old, v);
                b.store(Type::I64, sum, Value::Global(acc));
            });
            let msize = Value::const_i64(s.msize);
            let p = b.call(make, vec![msize], Some(Type::Ptr)).expect("ptr");
            b.store(Type::I64, i, p);
            let v = b.load(Type::I64, p);
            let old = b.load(Type::I64, Value::Global(acc));
            let sum = b.add(Type::I64, old, v);
            b.store(Type::I64, sum, Value::Global(acc));
            b.free(p);
            let q = b.call(make, vec![msize], Some(Type::Ptr)).expect("ptr");
            b.store(Type::I64, i, q);
            let odd = b.bin(privateer_ir::BinOp::SRem, Type::I64, i, Value::const_i64(2));
            let even = b.icmp(CmpOp::Eq, odd, Value::const_i64(0));
            if_then(b, even, |b| b.free(q));
            b.call(rec, vec![Value::const_i64(s.depth), i], None);
            let found = b
                .call(find, vec![Value::const_i64(s.needle)], Some(Type::I64))
                .expect("i64");
            let idx = b.bin(privateer_ir::BinOp::SRem, Type::I64, i, Value::const_i64(8));
            let slot = b.gep(Value::Global(cells), idx, 8, 0);
            b.store(Type::I64, found, slot);
        },
    );
    let fin = b.load(Type::I64, Value::Global(acc));
    b.print_i64(fin);
    b.ret(None);
    assert_eq!(m.add_function(b.finish()).index(), MAIN);

    let mut b = FunctionBuilder::new("rec", vec![Type::I64, Type::I64], None);
    let (depth, k) = (b.param(0), b.param(1));
    let tmp = b.alloca(16, "tmp");
    for_loop(&mut b, Value::const_i64(0), Value::const_i64(3), |b, j| {
        let old = b.load(Type::I64, Value::Global(acc));
        let sum = b.add(Type::I64, old, j);
        b.store(Type::I64, sum, Value::Global(acc));
        b.store(Type::I64, sum, tmp);
        let p = b
            .call(make, vec![Value::const_i64(16)], Some(Type::Ptr))
            .expect("ptr");
        b.store(Type::I64, k, p);
        b.free(p);
        let deeper = b.icmp(CmpOp::Gt, depth, Value::const_i64(0));
        if_then(b, deeper, |b| {
            let d = b.sub(Type::I64, depth, Value::const_i64(1));
            b.call(rec, vec![d, k], None);
        });
    });
    b.ret(None);
    assert_eq!(m.add_function(b.finish()).index(), REC);

    let mut b = FunctionBuilder::new("find", vec![Type::I64], Some(Type::I64));
    let needle = b.param(0);
    for_loop(&mut b, Value::const_i64(0), Value::const_i64(8), |b, j| {
        let slot = b.gep(Value::Global(cells), j, 8, 0);
        let v = b.load(Type::I64, slot);
        let hit = b.icmp(CmpOp::Eq, v, needle);
        let (ret_bb, cont) = (b.new_block(), b.new_block());
        b.cond_br(hit, ret_bb, cont);
        b.switch_to(ret_bb);
        b.ret(Some(j));
        b.switch_to(cont);
    });
    b.ret(Some(Value::const_i64(-1)));
    assert_eq!(m.add_function(b.finish()).index(), FIND);

    let mut b = FunctionBuilder::new("make", vec![Type::I64], Some(Type::Ptr));
    let p = b.malloc(b.param(0));
    b.ret(Some(p));
    assert_eq!(m.add_function(b.finish()).index(), MAKE);

    privateer_ir::verify::verify_module(&m).expect("generated program verifies");
    m
}

#[test]
fn straddling_accesses_cross_a_page() {
    let s = Shape {
        outer: 3,
        width: 8,
        disp: -4,
        stride: 8,
        count: 12,
        read_shift: -2,
        depth: 2,
        needle: 1,
        msize: 24,
    };
    let m = build(&s);
    // The generator relies on `big` starting a page.
    let image = load_module(&m);
    assert_eq!(image.global_addrs[0] % PAGE as u64, 0);
    assert_equivalent("fixed shape", &m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_loop_programs(
        (outer, wide, disp, stride, count) in (1i64..5, any::<bool>(), -12i64..6, 1u64..9, 1i64..12),
        (read_shift, depth, needle, msize) in (-9i64..9, 0i64..3, -1i64..4, 1i64..40),
    ) {
        let s = Shape {
            outer,
            width: if wide { 8 } else { 4 },
            disp,
            stride,
            count,
            read_shift,
            depth,
            needle,
            msize,
        };
        assert_equivalent(&format!("{s:?}"), &build(&s));
    }
}
