//! Boxed pipelines: the cost structure of Eden's list processing.
//!
//! The paper attributes the naive Eden version's order-of-magnitude
//! sequential slowdown "chiefly \[to\] the overhead of list manipulation"
//! (§1), and even the optimized version pays a 2–5x penalty when nested
//! traversals go through unoptimized steppers (§3.1). [`boxed_pipeline`] is
//! the Rust analogue the Eden kernels use: dynamic-dispatch iterator
//! composition, where each combinator layer is a `Box<dyn Iterator>`, so
//! element flow pays a virtual call per stage per element (what a stepper
//! looks like when the optimizer cannot see through it).

/// Erase an iterator behind dynamic dispatch: one `Box<dyn Iterator>` layer.
///
/// Eden-style kernels build their loop pipelines by stacking these, paying a
/// virtual call per element per stage — the honest Rust rendition of a
/// stepper the compiler failed to fuse.
pub fn boxed_pipeline<'a, T: 'a>(
    it: impl Iterator<Item = T> + 'a,
) -> Box<dyn Iterator<Item = T> + 'a> {
    Box::new(it)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_pipeline_composes() {
        let v: Vec<i32> = (0..10).collect();
        let stage1 = boxed_pipeline(v.into_iter().map(|x| x + 1));
        let stage2 = boxed_pipeline(stage1.filter(|x| x % 2 == 0));
        let stage3 = boxed_pipeline(stage2.map(|x| x * 10));
        assert_eq!(stage3.collect::<Vec<_>>(), vec![20, 40, 60, 80, 100]);
    }
}
