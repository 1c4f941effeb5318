//! Calibrated datasets from the paper's figures.
//!
//! All values are read off the published figures; the source figure is
//! noted per table. `None` means the paper does not report that cell
//! (e.g. HermiTux cannot run nginx, Mirage only runs its own HTTP
//! responder).

use crate::env::{AppId, ExecEnv};

/// Figure 9: image sizes in MB (stripped, no LTO/DCE), per app.
pub fn image_size_mb(env: ExecEnv, app: AppId) -> Option<f64> {
    use AppId::*;
    use ExecEnv::*;
    let v = match (env, app) {
        (UnikraftKvm, Hello) => 0.213,
        (UnikraftKvm, Nginx) => 1.6,
        (UnikraftKvm, Redis) => 1.8,
        (UnikraftKvm, Sqlite) => 1.6,
        (HermituxUhyve, Hello) => 1.3,
        (HermituxUhyve, Redis) => 2.1,
        (HermituxUhyve, Sqlite) => 1.5,
        (LinuxNative, Hello) => 0.016,
        (LinuxNative, Nginx) => 1.2,
        (LinuxNative, Redis) => 1.8,
        (LinuxNative, Sqlite) => 1.1,
        (LupineKvm, Hello) => 1.7,
        (LupineKvm, Nginx) => 3.6,
        (LupineKvm, Redis) => 2.6,
        (LupineKvm, Sqlite) => 3.2,
        (MirageSolo5, Hello) => 3.3,
        (OsvKvm, Hello) => 4.5,
        (OsvKvm, Nginx) => 5.4,
        (OsvKvm, Redis) => 8.1,
        (OsvKvm, Sqlite) => 5.4,
        (RumpKvm, Hello) => 2.8,
        (RumpKvm, Nginx) => 5.4,
        (RumpKvm, Redis) => 3.7,
        (RumpKvm, Sqlite) => 3.9,
        _ => return None,
    };
    Some(v)
}

/// Figure 11: minimum memory (MB) to boot and serve, per app.
pub fn min_memory_mb(env: ExecEnv, app: AppId) -> Option<u32> {
    use AppId::*;
    use ExecEnv::*;
    let v = match (env, app) {
        (UnikraftKvm, Hello) => 2,
        (UnikraftKvm, Nginx) => 5,
        (UnikraftKvm, Redis) => 7,
        (UnikraftKvm, Sqlite) => 4,
        (DockerNative, Hello) => 6,
        (DockerNative, Nginx) => 7,
        (DockerNative, Redis) => 7,
        (DockerNative, Sqlite) => 6,
        (RumpKvm, Hello) => 8,
        (RumpKvm, Nginx) => 12,
        (RumpKvm, Redis) => 13,
        (RumpKvm, Sqlite) => 10,
        (HermituxUhyve, Hello) => 11,
        (HermituxUhyve, Redis) => 13,
        (HermituxUhyve, Sqlite) => 10,
        (LupineKvm, Hello) => 20,
        (LupineKvm, Nginx) => 21,
        (LupineKvm, Redis) => 21,
        (LupineKvm, Sqlite) => 21,
        (OsvKvm, Hello) => 24,
        (OsvKvm, Nginx) => 26,
        (OsvKvm, Redis) => 40,
        (OsvKvm, Sqlite) => 26,
        (LinuxKvm, Hello) => 29,
        (LinuxKvm, Nginx) => 29,
        (LinuxKvm, Redis) => 30,
        (LinuxKvm, Sqlite) => 29,
        _ => return None,
    };
    Some(v)
}

/// Figure 12: Redis throughput in requests/s (GET, SET), 30 conns,
/// 100k requests, pipelining 16.
pub(crate) fn redis_throughput(env: ExecEnv) -> Option<(f64, f64)> {
    use ExecEnv::*;
    let v = match env {
        HermituxUhyve => (370_000.0, 240_000.0),
        LinuxFirecracker => (1_140_000.0, 1_060_000.0),
        LupineFirecracker => (1_260_000.0, 930_000.0),
        RumpKvm => (1_330_000.0, 1_170_000.0),
        LinuxKvm => (1_540_000.0, 1_310_000.0),
        LupineKvm => (1_820_000.0, 1_520_000.0),
        DockerNative => (1_950_000.0, 1_680_000.0),
        OsvKvm => (1_980_000.0, 1_540_000.0),
        LinuxNative => (2_440_000.0, 2_010_000.0),
        UnikraftKvm => (2_680_000.0, 2_260_000.0),
        MirageSolo5 => return None,
    };
    Some(v)
}

/// Figure 13: nginx (Mirage: HTTP-reply) throughput in requests/s,
/// wrk, 1 minute, 14 threads, 30 conns, static 612 B page.
pub(crate) fn nginx_throughput(env: ExecEnv) -> Option<f64> {
    use ExecEnv::*;
    let v = match env {
        MirageSolo5 => 25_900.0,
        LinuxFirecracker => 60_100.0,
        LupineFirecracker => 71_600.0,
        LinuxKvm => 104_500.0,
        RumpKvm => 152_600.0,
        DockerNative => 160_300.0,
        LinuxNative => 175_600.0,
        LupineKvm => 189_000.0,
        OsvKvm => 232_700.0,
        UnikraftKvm => 291_800.0,
        HermituxUhyve => return None, // "HermiTux does not support nginx".
    };
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{AppId, ExecEnv};

    #[test]
    fn unikraft_images_smallest_among_unikernels() {
        for app in [AppId::Nginx, AppId::Redis, AppId::Sqlite] {
            let uk = image_size_mb(ExecEnv::UnikraftKvm, app).unwrap();
            for env in [ExecEnv::OsvKvm, ExecEnv::RumpKvm, ExecEnv::LupineKvm] {
                if let Some(other) = image_size_mb(env, app) {
                    assert!(uk < other, "{env:?} {app:?}");
                }
            }
        }
    }

    #[test]
    fn unikraft_needs_least_memory() {
        for app in [AppId::Hello, AppId::Nginx, AppId::Redis, AppId::Sqlite] {
            let uk = min_memory_mb(ExecEnv::UnikraftKvm, app).unwrap();
            for env in ExecEnv::all() {
                if env == ExecEnv::UnikraftKvm {
                    continue;
                }
                if let Some(m) = min_memory_mb(env, app) {
                    assert!(uk <= m, "{env:?} {app:?}: {uk} > {m}");
                }
            }
        }
    }

    #[test]
    fn unikraft_redis_fastest_and_ratios_match_text() {
        let (uk_get, _) = redis_throughput(ExecEnv::UnikraftKvm).unwrap();
        let (osv_get, _) = redis_throughput(ExecEnv::OsvKvm).unwrap();
        let (lupine_get, _) = redis_throughput(ExecEnv::LupineKvm).unwrap();
        // §5.3: "Compared to OSv, Unikraft is about 35% faster on Redis";
        // "Compared to Lupine on QEMU/KVM, Unikraft is around 50% faster".
        assert!((uk_get / osv_get - 1.35).abs() < 0.05);
        assert!((uk_get / lupine_get - 1.47).abs() < 0.05);
    }

    #[test]
    fn unikraft_nginx_beats_everything() {
        let uk = nginx_throughput(ExecEnv::UnikraftKvm).unwrap();
        for env in ExecEnv::all() {
            if let Some(t) = nginx_throughput(env) {
                assert!(uk >= t, "{env:?}");
            }
        }
    }
}
