//! Property test: the interval map agrees with a naive per-byte model
//! under arbitrary insert/remove/query sequences, including `query_range`,
//! the only query the pointer-to-object profiler makes (it depends on this
//! exactness).

use privateer_profile::IntervalMap;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Insert { start: u64, len: u64, tag: u32 },
    RemoveAt { start: u64 },
    Query { addr: u64 },
    QueryRange { start: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..400, 1u64..40, any::<u32>()).prop_map(|(start, len, tag)| Op::Insert {
            start,
            len,
            tag
        }),
        (0u64..400).prop_map(|start| Op::RemoveAt { start }),
        (0u64..450).prop_map(|addr| Op::Query { addr }),
        (0u64..450, 1u64..60).prop_map(|(start, len)| Op::QueryRange { start, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_with_byte_model(ops in prop::collection::vec(op_strategy(), 0..80)) {
        let mut map: IntervalMap<u32> = IntervalMap::new();
        // Model: byte -> (range start, range end, tag).
        let mut model: HashMap<u64, (u64, u64, u32)> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert { start, len, tag } => {
                    let end = start + len;
                    // Eviction semantics: any overlapped range vanishes
                    // entirely.
                    let mut starts_overlapping = BTreeSet::new();
                    for b in start..end {
                        if let Some(&(s, _, _)) = model.get(&b) {
                            starts_overlapping.insert(s);
                        }
                    }
                    model.retain(|_, &mut (s, _, _)| !starts_overlapping.contains(&s));
                    for b in start..end {
                        model.insert(b, (start, end, tag));
                    }
                    map.insert(start, end, tag);
                }
                Op::RemoveAt { start } => {
                    map.remove_at(start);
                    model.retain(|_, &mut (s, _, _)| s != start);
                }
                Op::Query { addr } => {
                    let got = map.get(addr).copied();
                    let want = model.get(&addr).map(|&(_, _, t)| t);
                    prop_assert_eq!(got, want, "query at {}", addr);
                }
                Op::QueryRange { start, len } => {
                    let got: Vec<(u64, u64, u32)> = map
                        .query_range(start, start + len)
                        .map(|(s, e, &t)| (s, e, t))
                        .collect();
                    // Brute force: every distinct range covering a byte of
                    // the query, in address order.
                    let want: Vec<(u64, u64, u32)> = (start..start + len)
                        .filter_map(|b| model.get(&b).copied())
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    prop_assert_eq!(got, want, "query_range {}..{}", start, start + len);
                }
            }
        }
        // Final sweep: every byte agrees.
        for addr in 0..460u64 {
            let got = map.get(addr).copied();
            let want = model.get(&addr).map(|&(_, _, t)| t);
            prop_assert_eq!(got, want, "final sweep at {}", addr);
        }
        // Structural sanity: stored ranges are disjoint.
        let ranges: Vec<(u64, u64)> = map.iter().map(|(s, e, _)| (s, e)).collect();
        for (i, &(s1, e1)) in ranges.iter().enumerate() {
            for &(s2, e2) in &ranges[i + 1..] {
                prop_assert!(e1 <= s2 || e2 <= s1, "ranges overlap: {s1}..{e1} vs {s2}..{e2}");
            }
        }
    }
}
