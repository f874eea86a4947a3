//! The introduction's state-memory claim, quantified: full-map directory
//! `O(N·M)` versus the paper's distributed state
//! `O(C(N + log N) + M·log N)`, plus the two §5 reductions (split cache,
//! associative present-vector store).

use tmc_analytic::StateMemoryModel;

use crate::Table;

fn mib(bits: u128) -> String {
    format!("{:.1}", bits as f64 / 8.0 / 1024.0 / 1024.0)
}

pub fn run() {
    // 4096 blocks per cache (64 KiB of 16-byte blocks) and 1 Mi memory
    // blocks (16 MiB) *per module* — modest late-80s numbers; total memory
    // scales with the machine, as in the RP3/Butterfly class the paper
    // targets.
    let cache_blocks = 4096;
    let memory_blocks_per_module = 1u64 << 20;
    let mut t = Table::new(vec![
        "N".into(),
        "full map (MiB)".into(),
        "distributed (MiB)".into(),
        "split cache 25% (MiB)".into(),
        "assoc store 512 (MiB)".into(),
        "full/dist".into(),
    ]);
    for log_n in [5u32, 6, 7, 8, 9, 10] {
        let n = 1u64 << log_n;
        let m = StateMemoryModel::new(n, cache_blocks, n * memory_blocks_per_module);
        t.row(vec![
            n.to_string(),
            mib(m.full_map_bits()),
            mib(m.distributed_bits()),
            mib(m.distributed_split_cache_bits(0.25)),
            mib(m.distributed_associative_bits(512)),
            format!("{:.1}x", m.savings_factor()),
        ]);
    }
    t.print(&format!(
        "State memory, machine-wide: C = {cache_blocks} blocks/cache, M = N x {memory_blocks_per_module} memory blocks"
    ));
    println!(
        "The full map grows with memory size (O(N*M)); the paper's distributed\n\
         state grows with cache size (O(C(N + log N) + M log N)). The split-\n\
         cache and associative-store variants are the reductions sketched in\n\
         section 5 of the paper."
    );
}
