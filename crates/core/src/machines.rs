//! The installed machine base of the two research centres.
//!
//! "Jülich is equipped with 512-node Cray T3E-600 and 512-node T3E-1200
//! massively parallel computers and a 10-processor Cray T90
//! vector-computer. An IBM SP2, a 12-processor SGI Onyx 2 visualization
//! server, and a 8-processor SUN E500 are installed in the GMD."

use gtw_mpi::{FabricSpec, MachineSpec};

/// Where a machine lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// Research Centre Jülich (FZJ).
    Juelich,
    /// GMD, Sankt Augustin.
    SanktAugustin,
}

/// One machine of the metacomputer.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Name as in the paper.
    pub name: &'static str,
    /// Site.
    pub site: Site,
    /// Processing elements.
    pub pes: usize,
    /// Per-PE peak (MFLOPS, nominal — for capacity-planning arithmetic).
    pub mflops_per_pe: f64,
    /// Internal fabric for the `gtw-mpi` cost model.
    pub fabric: FabricSpec,
}

impl Machine {
    /// As a `gtw-mpi` machine spec.
    pub fn spec(&self) -> MachineSpec {
        MachineSpec::new(self.name, self.fabric)
    }

    /// Aggregate nominal peak in GFLOPS.
    pub fn peak_gflops(&self) -> f64 {
        self.pes as f64 * self.mflops_per_pe / 1e3
    }
}

/// The full catalogue.
#[derive(Clone, Debug)]
pub struct MachineCatalog {
    /// All machines.
    pub machines: Vec<Machine>,
}

impl Default for MachineCatalog {
    fn default() -> Self {
        Self::paper()
    }
}

impl MachineCatalog {
    /// The June-1999 configuration of the paper.
    pub fn paper() -> Self {
        MachineCatalog {
            machines: vec![
                Machine {
                    name: "Cray T3E-600",
                    site: Site::Juelich,
                    pes: 512,
                    mflops_per_pe: 600.0,
                    fabric: FabricSpec::t3e_torus(),
                },
                Machine {
                    name: "Cray T3E-1200",
                    site: Site::Juelich,
                    pes: 512,
                    mflops_per_pe: 1200.0,
                    fabric: FabricSpec::t3e_torus(),
                },
                Machine {
                    name: "Cray T90",
                    site: Site::Juelich,
                    pes: 10,
                    mflops_per_pe: 1800.0,
                    fabric: FabricSpec::smp_shared(),
                },
                Machine {
                    name: "IBM SP2",
                    site: Site::SanktAugustin,
                    pes: 34,
                    mflops_per_pe: 480.0,
                    fabric: FabricSpec::sp2_switch(),
                },
                Machine {
                    name: "SGI Onyx 2",
                    site: Site::SanktAugustin,
                    pes: 12,
                    mflops_per_pe: 390.0,
                    fabric: FabricSpec::smp_shared(),
                },
                Machine {
                    name: "SUN E500",
                    site: Site::SanktAugustin,
                    pes: 8,
                    mflops_per_pe: 330.0,
                    fabric: FabricSpec::smp_shared(),
                },
            ],
        }
    }

    /// Look a machine up by name.
    pub fn find(&self, name: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Machines at a site.
    pub fn at(&self, site: Site) -> impl Iterator<Item = &Machine> {
        self.machines.iter().filter(move |m| m.site == site)
    }

    /// Total PEs across the metacomputer.
    pub fn total_pes(&self) -> usize {
        self.machines.iter().map(|m| m.pes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_paper() {
        let c = MachineCatalog::paper();
        assert_eq!(c.find("Cray T3E-600").unwrap().pes, 512);
        assert_eq!(c.find("Cray T3E-1200").unwrap().pes, 512);
        assert_eq!(c.find("Cray T90").unwrap().pes, 10);
        assert_eq!(c.find("SGI Onyx 2").unwrap().pes, 12);
        assert_eq!(c.find("SUN E500").unwrap().pes, 8);
        assert!(c.find("VAX").is_none());
    }

    #[test]
    fn sites_partition_machines() {
        let c = MachineCatalog::paper();
        let fzj = c.at(Site::Juelich).count();
        let gmd = c.at(Site::SanktAugustin).count();
        assert_eq!(fzj + gmd, c.machines.len());
        assert_eq!(fzj, 3);
        assert_eq!(gmd, 3);
    }

    #[test]
    fn t3e_1200_doubles_per_pe_peak() {
        let c = MachineCatalog::paper();
        let slow = c.find("Cray T3E-600").unwrap();
        let fast = c.find("Cray T3E-1200").unwrap();
        assert_eq!(fast.mflops_per_pe, 2.0 * slow.mflops_per_pe);
        assert!(fast.peak_gflops() > 600.0);
    }

    #[test]
    fn total_capacity() {
        let c = MachineCatalog::paper();
        assert!(c.total_pes() > 1000, "{}", c.total_pes());
        // Every machine exposes a usable MPI spec.
        for m in &c.machines {
            assert_eq!(m.spec().name, m.name);
        }
    }
}
