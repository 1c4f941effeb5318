//! Benchmark harness (`ukbench`).
//!
//! One module per group of experiments; the `figures` binary dispatches
//! experiment ids (`tab1`, `fig8`, … or `all`) to these functions, each
//! of which regenerates the corresponding paper table/figure as text
//! rows (and DOT files for the graph figures). Criterion benches under
//! `benches/` reuse the same code for statistically rigorous timing of
//! the hot paths.

pub mod exp_ablation;
pub mod exp_apps;
pub mod exp_boot;
pub mod exp_build;
pub mod exp_io;
pub mod exp_micro;
pub mod exp_port;
pub mod netharness;
pub mod util;

/// All experiment ids in paper order.
pub static ALL_EXPERIMENTS: &[&str] = &[
    "tab1", "tab2", "tab4", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22", "ablate-batch", "ablate-sched",
];

/// Runs one experiment by id, returning its report text.
pub fn run_experiment(id: &str) -> Option<String> {
    let out = match id {
        "tab1" => exp_micro::tab1_syscall_costs(),
        "tab2" => exp_port::tab2_automated_porting(),
        "tab4" => exp_io::tab4_udp_kv(),
        "fig1" => exp_build::fig1_linux_graph(),
        "fig2" => exp_build::fig2_nginx_graph(),
        "fig3" => exp_build::fig3_hello_graph(),
        "fig5" => exp_port::fig5_syscall_heatmap(),
        "fig6" => exp_port::fig6_porting_survey(),
        "fig7" => exp_port::fig7_syscall_support(),
        "fig8" => exp_build::fig8_image_sizes(),
        "fig9" => exp_build::fig9_cross_os_sizes(),
        "fig10" => exp_boot::fig10_boot_time_per_vmm(),
        "fig11" => exp_boot::fig11_min_memory(),
        "fig12" => exp_apps::fig12_redis_throughput(),
        "fig13" => exp_apps::fig13_nginx_throughput(),
        "fig14" => exp_boot::fig14_boot_per_allocator(),
        "fig15" => exp_apps::fig15_nginx_per_allocator(),
        "fig16" => exp_apps::fig16_sqlite_speedup(),
        "fig17" => exp_apps::fig17_sqlite_insert_time(),
        "fig18" => exp_apps::fig18_redis_per_allocator(),
        "fig19" => exp_io::fig19_tx_throughput(),
        "fig20" => exp_io::fig20_9pfs_latency(),
        "fig21" => exp_boot::fig21_page_table_boot(),
        "fig22" => exp_io::fig22_shfs_vs_vfs(),
        "ablate-batch" => exp_ablation::ablate_batching(),
        "ablate-sched" => exp_ablation::ablate_scheduler(),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_resolves() {
        // Smoke-run only the cheap, deterministic ones here; the rest
        // run in integration tests and via the binary.
        for id in ["fig1", "fig6", "tab2"] {
            assert!(run_experiment(id).is_some(), "{id}");
        }
        assert!(run_experiment("nope").is_none());
    }
}
