//! Source dispatch policy.
//!
//! Each worker hosts one instance of every source operator; the
//! [`SourceDispatcher`] decides the order those instances are considered
//! each poll step. The worker merges streams by schedule availability
//! (earliest next record wins), so the dispatcher's rotating round-robin
//! only breaks exact-tie availabilities — keeping multi-stream workloads
//! fair without letting declaration order pick every tie winner.

/// Rotating round-robin order over a worker's source instances.
pub(crate) struct SourceDispatcher {
    /// Instance indices (into the worker's instance vector) of the
    /// source operators, in declaration order.
    slots: Vec<usize>,
    next: usize,
}

impl SourceDispatcher {
    pub fn new(slots: Vec<usize>) -> Self {
        Self { slots, next: 0 }
    }

    /// The poll order for one loop iteration: all source slots, starting
    /// one further along than last time.
    pub fn order(&mut self) -> impl Iterator<Item = usize> + '_ {
        let n = self.slots.len();
        let start = if n == 0 { 0 } else { self.next % n };
        if n > 0 {
            self.next = (self.next + 1) % n;
        }
        (0..n).map(move |i| self.slots[(start + i) % n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_fair_and_complete() {
        let mut d = SourceDispatcher::new(vec![2, 5, 7]);
        let a: Vec<usize> = d.order().collect();
        let b: Vec<usize> = d.order().collect();
        let c: Vec<usize> = d.order().collect();
        let e: Vec<usize> = d.order().collect();
        assert_eq!(a, [2, 5, 7]);
        assert_eq!(b, [5, 7, 2]);
        assert_eq!(c, [7, 2, 5]);
        assert_eq!(e, a, "rotation wraps around");
        for order in [&a, &b, &c] {
            let mut sorted = (*order).clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [2, 5, 7], "every slot polled every iteration");
        }
    }
}
