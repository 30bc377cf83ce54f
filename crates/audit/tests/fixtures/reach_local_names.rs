//! Reachability fixture: a live library fn whose locals share names
//! with fns elsewhere. The `let` shadows the free `clear`, and a closure
//! parameter named `main` is no bin's `main`, so `clear` and
//! `only_measured` are reached from the measuring bin alone.

pub fn live_entry(x: &mut [f32]) -> usize {
    let clear = |v: &mut [f32]| v.iter_mut().for_each(|e| *e = 0.0);
    clear(x);
    (0..x.len()).map(|main| main % 8).sum()
}

pub fn clear(x: &mut [f32]) {
    x.iter_mut().for_each(|e| *e = 1.0);
}

pub fn only_measured() -> u32 {
    1
}
