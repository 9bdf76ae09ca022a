//! Bounded top-K selection — the heap `Q` of Algorithms 1–3.
//!
//! The paper's pseudo-code "maintain[s] the size of Q under the capacity of
//! w": a selector holding, per arriving worker, the K best (key, task)
//! pairs. Ties on the key are broken toward the smaller task id, which
//! reproduces the worked examples (e.g. Example 3 assigns `t1` over `t3`
//! when both score 0.85 for `w1`).
//!
//! `K` is a small constant (6 in the paper's experiments), so the selector
//! keeps its entries in a fixed inline array and replaces the worst kept
//! entry by linear scan — O(K) per offer, but allocation-free and
//! branch-predictable, which beats a `BinaryHeap`'s `O(log K)` with its
//! per-worker heap allocation on the streaming hot path. Capacities above
//! the inline bound (only reachable through explicit configuration) spill
//! to a heap-allocated buffer with identical semantics.

use super::Pick;
use crate::model::TaskId;

/// Entries kept on the stack; capacities `K ≤ INLINE` never allocate.
const INLINE: usize = 8;

/// A max-K selector over [`Pick`]s: keeps the K picks with the largest
/// keys, tie-breaking toward smaller task ids.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    len: usize,
    /// Index of the worst kept entry; maintained once the selector is
    /// full, so a losing offer costs one comparison, not a scan.
    worst: usize,
    /// Unordered kept entries for `k <= INLINE` (first `len` slots live).
    inline: [Pick; INLINE],
    /// Kept entries for `k > INLINE` (the inline array is unused then).
    spill: Vec<Pick>,
}

/// Whether `(key, task)` outranks `worst` — larger key wins, ties go to
/// the smaller task id. This is the strict total order the old
/// `BinaryHeap` implementation encoded in its `Ord`, so the kept set is
/// unchanged.
#[inline]
fn beats(p: Pick, worst: Pick) -> bool {
    p.key > worst.key || (p.key == worst.key && p.task < worst.task)
}

impl TopK {
    /// A selector keeping at most `k` entries. Allocation-free for
    /// `k <= 8`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            len: 0,
            worst: 0,
            inline: [Pick {
                key: 0.0,
                task: TaskId(0),
            }; INLINE],
            spill: if k > INLINE {
                Vec::with_capacity(k)
            } else {
                Vec::new()
            },
        }
    }

    /// Offers a candidate; keeps it only if it ranks among the best K so
    /// far.
    // ltc-lint: hot-path
    pub fn offer(&mut self, key: f64, task: TaskId) {
        debug_assert!(!key.is_nan(), "selection keys must not be NaN");
        if self.k == 0 {
            return;
        }
        let pick = Pick { key, task };
        if self.len < self.k {
            if self.k <= INLINE {
                self.inline[self.len] = pick;
            } else {
                self.spill.push(pick);
            }
            self.len += 1;
            if self.len == self.k {
                self.worst = Self::find_worst(self.buf());
            }
            return;
        }
        let worst = self.worst;
        let buf = self.buf_mut();
        if beats(pick, buf[worst]) {
            buf[worst] = pick;
            self.worst = Self::find_worst(self.buf());
        }
    }

    #[inline]
    fn buf(&self) -> &[Pick] {
        if self.k <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    #[inline]
    fn buf_mut(&mut self) -> &mut [Pick] {
        if self.k <= INLINE {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }

    /// Index of the worst kept entry (the one every other entry beats).
    fn find_worst(buf: &[Pick]) -> usize {
        let mut worst = 0;
        for (i, &entry) in buf.iter().enumerate().skip(1) {
            // `entry` is worse than the current worst iff the worst
            // beats it under the selection order.
            if beats(buf[worst], entry) {
                worst = i;
            }
        }
        worst
    }

    /// Drains the kept entries into `out` (cleared), normalized to
    /// ascending task-id order for reproducibility of the committed
    /// assignment trace. Callers only need the *set*.
    pub fn drain_into(&mut self, out: &mut Vec<Pick>) {
        out.clear();
        out.extend_from_slice(self.buf());
        out.sort_unstable_by_key(|p| p.task);
        self.len = 0;
        self.spill.clear();
    }

    /// Number of kept entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(top: &mut TopK) -> Vec<u32> {
        let mut v = Vec::new();
        top.drain_into(&mut v);
        v.into_iter().map(|p| p.task.0).collect()
    }

    #[test]
    fn keeps_largest_keys() {
        let mut top = TopK::new(2);
        top.offer(0.1, TaskId(0));
        top.offer(0.9, TaskId(1));
        top.offer(0.5, TaskId(2));
        top.offer(0.8, TaskId(3));
        assert_eq!(collect(&mut top), vec![1, 3]);
    }

    #[test]
    fn tie_breaks_toward_smaller_task() {
        let mut top = TopK::new(2);
        top.offer(0.85, TaskId(2)); // t3 in paper numbering
        top.offer(0.92, TaskId(1)); // t2
        top.offer(0.85, TaskId(0)); // t1 — ties with t3, must win
        assert_eq!(collect(&mut top), vec![0, 1]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut top = TopK::new(5);
        top.offer(0.5, TaskId(7));
        assert_eq!(top.len(), 1);
        assert_eq!(collect(&mut top), vec![7]);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut top = TopK::new(0);
        top.offer(1.0, TaskId(0));
        assert_eq!(top.len(), 0);
    }

    #[test]
    fn drain_resets_the_selector() {
        let mut top = TopK::new(2);
        top.offer(0.5, TaskId(0));
        let mut out = Vec::new();
        top.drain_into(&mut out);
        assert_eq!(top.len(), 0);
        top.offer(0.7, TaskId(9));
        assert_eq!(collect(&mut top), vec![9]);
    }

    #[test]
    fn spilled_capacity_matches_inline_semantics() {
        // k beyond the inline bound exercises the heap-backed branch.
        let mut top = TopK::new(12);
        for i in 0..40u32 {
            // Keys collide in pairs so ties are exercised in the spill
            // path too.
            top.offer(f64::from(i / 2), TaskId(i));
        }
        // Best 12: keys 19,19,18,18,...,14,14 → tasks 38,39,36,37,...,28,29.
        assert_eq!(
            collect(&mut top),
            vec![28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39]
        );
    }

    /// The inline selector keeps exactly the same set a bounded
    /// `BinaryHeap` kept, on randomized offer sequences with ties.
    #[test]
    fn matches_heap_reference() {
        // Small deterministic LCG so the test needs no external RNG.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in [1usize, 2, 3, 6, 8, 9, 17] {
            for _ in 0..50 {
                let n = (next() % 30) as usize + 1;
                let offers: Vec<(f64, TaskId)> = (0..n)
                    .map(|_| {
                        let key = (next() % 8) as f64 / 4.0;
                        let task = TaskId((next() % 24) as u32);
                        (key, task)
                    })
                    .collect();
                let mut top = TopK::new(k);
                for &(key, task) in &offers {
                    top.offer(key, task);
                }
                let got: Vec<TaskId> = collect(&mut top).into_iter().map(TaskId).collect();

                // Reference: sort all offers best-first, take k.
                let mut sorted = offers.clone();
                sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
                let mut want: Vec<TaskId> = sorted.into_iter().take(k).map(|(_, t)| t).collect();
                want.sort_unstable();
                assert_eq!(got, want, "k={k} offers={offers:?}");
            }
        }
    }
}
