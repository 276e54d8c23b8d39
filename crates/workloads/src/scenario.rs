//! A runnable workload instance.

use cluster::{ClusterMachine, Mount};
use fs::FileId;
use mpisim::OpStream;

/// One runnable workload: per-rank op streams plus the machine-side setup
/// they assume (file→mount routing and pre-existing input files).
pub struct Scenario {
    /// Report label.
    pub name: String,
    /// One op stream per rank.
    pub programs: Vec<Box<dyn OpStream>>,
    /// File routing to apply before the run.
    pub mounts: Vec<(FileId, Mount)>,
    /// Files that must pre-exist with the given size.
    pub prealloc: Vec<(FileId, u64)>,
}

impl Scenario {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// Applies mounts and preallocations to `machine` and returns the
    /// programs, consuming the scenario.
    pub fn install(self, machine: &mut ClusterMachine) -> Vec<Box<dyn OpStream>> {
        for &(file, mount) in &self.mounts {
            machine.mount(file, mount);
        }
        for &(file, size) in &self.prealloc {
            machine.preallocate(file, size);
        }
        self.programs
    }
}

/// A workload value: anything that builds a fresh [`Scenario`] on demand,
/// from any thread. Campaigns and result stores take workloads rather
/// than scenarios because a scenario is consumed by one run, while the
/// workload can be run again and (through its `Debug` rendering) names
/// itself.
pub trait Workload: Sync {
    /// Builds the runnable scenario.
    fn scenario(&self) -> Scenario;
}

/// Closures are workloads too (test fakes, ad-hoc generators).
impl<F: Fn() -> Scenario + Sync> Workload for F {
    fn scenario(&self) -> Scenario {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{presets, DeviceLayout, IoConfigBuilder};
    use mpisim::VecStream;

    #[test]
    fn install_applies_mounts_and_prealloc() {
        let spec = presets::test_cluster();
        let config = IoConfigBuilder::new(DeviceLayout::Jbod).build();
        let mut machine =
            ClusterMachine::try_new(&spec, &config).expect("valid cluster configuration");
        let s = Scenario {
            name: "t".into(),
            programs: vec![Box::new(VecStream::new(vec![]))],
            mounts: vec![(FileId(5), Mount::Nfs)],
            prealloc: vec![(FileId(5), 1024)],
        };
        assert_eq!(s.ranks(), 1);
        let programs = s.install(&mut machine);
        assert_eq!(programs.len(), 1);
        assert_eq!(machine.server().fs().file_size(FileId(5)), 1024);
    }
}
