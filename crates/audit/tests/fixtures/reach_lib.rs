// Library side of the reachability fixtures: one fn per way a function
// can be reached, plus one only a test reaches and one nothing reaches.

pub trait Lanes {
    fn fma(self) -> Self;
}

pub struct Wide;

impl Lanes for Wide {
    fn fma(self) -> Self {
        self
    }
}

// Reached only through `V::fma` on a generic.
pub fn generic_body<V: Lanes>(v: V) -> V {
    V::fma(v)
}

// Named only in a static initializer.
pub fn scalar_body(x: f32) -> f32 {
    x
}

pub struct Kernel {
    pub body: fn(f32) -> f32,
}

pub static SCALAR: Kernel = Kernel { body: scalar_body };

// Named only in a const table.
pub fn gate_speedup() -> bool {
    true
}

pub const GATES: &[fn() -> bool] = &[gate_speedup];

// Named only as a macro argument.
pub fn macro_arg(x: f32) -> f32 {
    x
}

macro_rules! apply {
    ($f:ident, $x:expr) => {
        $f($x)
    };
}

pub fn through_macro() -> f32 {
    apply!(macro_arg, 1.0)
}

// A std trait's method: std calls it, nothing here does.
pub struct Shown;

impl std::fmt::Display for Shown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_shown(f)
    }
}

fn write_shown(f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    f.write_str("shown")
}

pub fn only_tested() -> u32 {
    1
}

pub fn nobody() -> u32 {
    2
}

pub fn kept_oracle() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_the_test_helpers() {
        assert_eq!(only_tested(), 1);
        assert_eq!(kept_oracle(), 3);
    }
}
