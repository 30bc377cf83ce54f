//! Transitive-arena fixture: the hot root calls a closure it binds as
//! `run`. A bare call names no method, and the `let` shadows the free fn.

pub fn hot_root(x: &mut [f32]) {
    let run = |v: &mut [f32]| v.fill(0.0);
    run(x);
}

pub struct Plan;

impl Plan {
    pub fn run(&self, x: &mut [f32]) {
        let _copy = x.to_vec();
    }
}

pub fn run(x: &mut [f32]) {
    let _copy = x.to_vec();
}
