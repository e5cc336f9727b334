//! Scenario: planning the data layout for a hybrid compute node.
//!
//! The paper motivates the three-processor abstraction with modern hybrid
//! nodes (Section I, citing \[9\]): a GPU, a multicore socket, and a host
//! core modeled as three abstract processors of very different speeds.
//! This example plans the MMM data layout for such a node across a range
//! of GPU-to-CPU speed gaps and two interconnect qualities, showing where
//! the non-rectangular Square-Corner pays off and where the traditional
//! rectangular layout remains fine.
//!
//! ```text
//! cargo run --release -p hetmmm-examples --bin hybrid_node_planner
//! ```

use hetmmm::prelude::*;

fn main() {
    let n = 120;
    println!("hybrid node layout planner — N = {n} blocks\n");

    // Think of the columns as "GPU : socket : host-core" speed ratios.
    let scenarios: &[(u32, u32, u32, &str)] = &[
        (2, 1, 1, "balanced tri-socket"),
        (5, 2, 1, "entry GPU + socket + core"),
        (10, 2, 1, "mid GPU + socket + core"),
        (20, 2, 1, "fast GPU + socket + core"),
        (40, 3, 1, "flagship GPU + big socket + core"),
    ];
    // Interconnects: slow cluster-style vs fast NVLink-style, expressed as
    // element-send cost relative to one scalar update.
    let networks: &[(f64, &str)] = &[(50.0, "slow interconnect"), (2.0, "fast interconnect")];

    for &(comm_weight, net_name) in networks {
        println!("== {net_name} (send/update cost ratio {comm_weight}) ==");
        println!(
            "{:>28}  {:>22}  {:>12}  {:>12}",
            "platform", "best shape (SCB)", "SCB time", "vs worst"
        );
        for &(p, r, s, label) in scenarios {
            let ratio = Ratio::new(p, r, s);
            let base_speed = 1e9;
            let platform = Platform::new(ratio, base_speed, comm_weight / base_speed);
            let rec = hetmmm::recommend(n, ratio, &platform, Algorithm::Scb);
            let worst = rec.ranking.last().expect("non-empty").1;
            println!(
                "{label:>28}  {:>22}  {:>10.4} s  {:>10.1}%",
                rec.candidate.ty.paper_name(),
                rec.predicted_total,
                (worst - rec.predicted_total) / worst * 100.0
            );
        }
        println!();
    }

    // Also show how the answer changes with the algorithm on one platform.
    let ratio = Ratio::new(20, 2, 1);
    let platform = Platform::new(ratio, 1e9, 50.0 / 1e9);
    println!("== algorithm sensitivity at ratio {ratio}, slow interconnect ==");
    for algo in Algorithm::ALL {
        let rec = hetmmm::recommend(n, ratio, &platform, algo);
        println!(
            "  {:<4} → {:<24} ({:.4} s)",
            algo.name(),
            rec.candidate.ty.paper_name(),
            rec.predicted_total
        );
    }
    println!(
        "\ntakeaway: the stronger the fast device and the slower the network, \
         the more the non-rectangular corner shapes win."
    );
}
