//! The simulated makespan `paper_sim` adds to its modeled total, pinned
//! bit for bit: four Table I tenants at batch 32 built the way the
//! benchmark builds them, alternating closed-loop and open arrivals,
//! 24 jobs each, on a K40c under a 500 µs round-robin quantum. A change
//! to the engine that moves a single bit of the makespan, or one
//! preemption, fails here.

use gcnn_conv::{table1_configs, ConvConfig};
use gcnn_frameworks::all_implementations;
use gcnn_gpusim::DeviceSpec;
use gcnn_mtsim::{simulate, Arrival, SchedPolicy, SimConfig, TenantSpec};

/// `paper_sim`'s tenants for `seed`: the seed picks each tenant's
/// implementation, Table I layer and arrival period.
fn tenants(seed: u64) -> Vec<TenantSpec> {
    let impls = all_implementations();
    let table = table1_configs();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    (0..4)
        .map(|t| {
            let (imp, cfg) = loop {
                let imp = &impls[next(impls.len())];
                let cfg = ConvConfig {
                    batch: 32,
                    ..table[next(table.len())]
                };
                if imp.supports(&cfg).is_ok() {
                    break (imp, cfg);
                }
            };
            let arrival = if t % 2 == 0 {
                Arrival::ClosedLoop
            } else {
                Arrival::Open {
                    period_us: 2000.0 + 250.0 * next(8) as f64,
                }
            };
            TenantSpec::from_plan(
                &format!("tenant{t}-{}", imp.name()),
                &imp.plan(&cfg),
                arrival,
                24,
            )
        })
        .collect()
}

#[test]
fn paper_sim_makespan_is_pinned() {
    // (seed, makespan_ms bits, preemptions), recorded before the
    // engine lost its FIFO and SM-partition policies.
    const PINNED: [(u64, u64, u64); 3] = [
        (1, 0x40b0_da42_5311_1f0c, 4343), // 4314.25908 ms
        (2, 0x40ba_f449_6701_96d9, 356),  // 6900.286728 ms
        (3, 0x40a2_1be9_4ab1_d4fa, 310),  // 2317.955648 ms
    ];
    let policy = SchedPolicy::RoundRobin { quantum_us: 500.0 };
    for (seed, bits, preemptions) in PINNED {
        let r = simulate(&DeviceSpec::k40c(), &tenants(seed), SimConfig::new(policy));
        assert_eq!(
            r.makespan_ms.to_bits(),
            bits,
            "seed {seed}: {} ms",
            r.makespan_ms
        );
        assert_eq!(r.preemptions, preemptions, "seed {seed}");
    }
}
