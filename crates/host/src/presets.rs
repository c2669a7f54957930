//! Machine presets matching the paper's testbed.
//!
//! * ANL source: dual-socket quad-core Nehalem (Xeon E5530, 2.40 GHz,
//!   48 GB) behind a 40 Gb/s NIC.
//! * UChicago destination: dual-socket 8-core Sandy Bridge (Xeon E5-2670,
//!   2.60 GHz, 32 GB), 40 Gb/s NIC.
//! * TACC destination: Stampede Sandy Bridge node (Xeon E5-2680, 2.70 GHz,
//!   32 GB) behind a 20 Gb/s path, RTT 33 ms from ANL.
//!
//! The CPU-model constants are calibrated so the workspace reproduces the
//! paper's headline numbers (see `crates/scenarios` calibration tests):
//! Globus-default throughput ≈ 2500 MB/s idle, ≈ 200 MB/s under `ext.cmp=16`,
//! restart overhead 17 % → 50 % as compute load grows.

use crate::cpu::CpuModel;
use crate::startup::StartupModel;

/// A machine description: name, CPU model, NIC capacity, startup model.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Human-readable machine name.
    pub name: String,
    /// CPU fair-share model.
    pub cpu: CpuModel,
    /// NIC capacity in MB/s (also modelled as a link in `xferopt-net`;
    /// recorded here for reports).
    pub nic_mbs: f64,
    /// Process restart cost model.
    pub startup: StartupModel,
}

/// The ANL Nehalem source machine (8 cores, 40 Gb/s NIC).
pub fn nehalem() -> HostSpec {
    HostSpec {
        name: "anl-nehalem".to_string(),
        cpu: CpuModel {
            cores: 8.0,
            core_rate_mbs: 1250.0,
            compute_thread_weight: 3.0,
            csw_alpha: 0.006,
            csw_alpha_per_hog: 0.0004,
            csw_gamma: 1.0,
        },
        nic_mbs: 5000.0,
        startup: StartupModel::default(),
    }
}

/// The UChicago Sandy Bridge destination (16 cores, 40 Gb/s NIC).
///
/// The paper never loads the destination; more cores and a faster per-core
/// rate mean the sink is never the bottleneck, matching that assumption.
pub fn sandybridge_uchicago() -> HostSpec {
    HostSpec {
        name: "uchicago-sandybridge".to_string(),
        cpu: CpuModel {
            cores: 16.0,
            core_rate_mbs: 1400.0,
            compute_thread_weight: 3.0,
            csw_alpha: 0.004,
            csw_alpha_per_hog: 0.0004,
            csw_gamma: 1.0,
        },
        nic_mbs: 5000.0,
        startup: StartupModel::default(),
    }
}

/// A TACC Stampede Sandy Bridge node (16 cores, 20 Gb/s path from ANL).
pub fn stampede_tacc() -> HostSpec {
    HostSpec {
        name: "tacc-stampede".to_string(),
        cpu: CpuModel {
            cores: 16.0,
            core_rate_mbs: 1400.0,
            compute_thread_weight: 3.0,
            csw_alpha: 0.004,
            csw_alpha_per_hog: 0.0004,
            csw_gamma: 1.0,
        },
        nic_mbs: 2500.0,
        startup: StartupModel::default(),
    }
}

/// A modern data-transfer node (EPYC-class, 100 Gb/s NIC) — not part of the
/// paper's 2016 testbed, provided so the library generalizes to current
/// hardware: many more cores, faster per-core movement, jumbo-frame NICs.
pub fn modern_dtn() -> HostSpec {
    HostSpec {
        name: "modern-dtn".to_string(),
        cpu: CpuModel {
            cores: 64.0,
            core_rate_mbs: 3000.0,
            compute_thread_weight: 2.0,
            csw_alpha: 0.004,
            csw_alpha_per_hog: 0.0002,
            csw_gamma: 1.0,
        },
        nic_mbs: 12500.0, // 100 Gb/s
        startup: StartupModel {
            base_s: 0.3,
            stretch_s: 1.2,
            per_proc_s: 0.02,
            kappa: 0.35,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for spec in [nehalem(), sandybridge_uchicago(), stampede_tacc()] {
            spec.cpu.validate();
            spec.startup.validate();
            assert!(spec.nic_mbs > 0.0);
            assert!(!spec.name.is_empty());
        }
    }

    #[test]
    fn nehalem_matches_paper_hardware() {
        let n = nehalem();
        assert_eq!(n.cpu.cores, 8.0); // dual-socket quad-core
        assert_eq!(n.nic_mbs, 5000.0); // 40 Gb/s
    }

    #[test]
    fn destinations_outclass_source() {
        let src = nehalem();
        for dst in [sandybridge_uchicago(), stampede_tacc()] {
            assert!(dst.cpu.cores > src.cpu.cores);
            assert!(dst.cpu.core_rate_mbs >= src.cpu.core_rate_mbs);
        }
    }

    #[test]
    fn tacc_path_is_twenty_gbps() {
        assert_eq!(stampede_tacc().nic_mbs, 2500.0);
    }

    #[test]
    fn modern_dtn_validates_and_outclasses_2016() {
        let m = modern_dtn();
        m.cpu.validate();
        m.startup.validate();
        let old = nehalem();
        assert!(m.cpu.cores > 4.0 * old.cpu.cores);
        assert!(m.nic_mbs > 2.0 * old.nic_mbs);
        // Restarts are far cheaper on a modern node.
        assert!(m.startup.startup_time_s(2, 1.0) < old.startup.startup_time_s(2, 1.0) / 2.0);
    }

    #[test]
    fn modern_dtn_default_is_not_cpu_bound() {
        // On a modern node the Globus default's bottleneck moves back to the
        // network: 2 processes can push 6 GB/s, under half the 100 Gb/s NIC.
        use crate::host::{AppLoad, Host};
        let mut h = Host::new(modern_dtn());
        let a = h.add_app(AppLoad { nc: 2, np: 8 });
        assert!(h.cpu_cap_mbs(a) >= 6000.0);
        assert!(h.cpu_cap_mbs(a) < m_nic());
    }

    fn m_nic() -> f64 {
        modern_dtn().nic_mbs
    }
}
