//! Regenerates Figure 3: the paths from one node to all other nodes of an
//! omega network form a binary tree of switches.

use tmc_omeganet::{DestSet, Omega};

pub fn run() {
    let net = Omega::new(3).expect("N = 8 is supported");
    let src = 0;
    let all = DestSet::all(net.ports());
    let tree = net.tree_view(src, &all).expect("valid");

    println!("\nFigure 3: broadcast tree from node {src} in an 8x8 omega network\n");
    println!("source {src}");
    for (stage, switches) in tree.iter().enumerate() {
        let labels: Vec<String> = switches.iter().map(|s| format!("sw{stage}.{s}")).collect();
        println!(
            "stage {stage}: {} switches reached: {}",
            switches.len(),
            labels.join("  ")
        );
    }
    println!("leaves : destinations 0..{}", net.ports() - 1);

    println!("\nA unicast path for comparison (5 -> 2):");
    for link in net.route(5, 2) {
        println!("  layer {} via line {}", link.layer, link.line);
    }
    println!(
        "\nShape check (paper): 1, 2, 4 switches at stages 0, 1, 2 — each\n\
         switch forks once, so a full broadcast is a complete binary tree."
    );
}
