//! MPI-2 dynamic processes and attachment: a [`Comm`] spawns a child
//! world or rendezvouses with another on a named port, and talks to it
//! through an [`InterComm`].

use std::sync::Arc;
use std::time::Duration;

use super::{Comm, InterComm};
use crate::error::CommResult;
use crate::machine::{MachineSpec, Placement};
use crate::trace::EventKind;

impl Comm {
    fn intercomm(&self, remote_group: Arc<Vec<usize>>) -> InterComm {
        InterComm {
            universe: Arc::clone(&self.universe),
            my_global: self.global_id(),
            mailbox: self.peers[self.my_local].clone(),
            remote: remote_group.iter().map(|&g| self.universe.mailbox(g)).collect(),
            remote_group,
        }
    }

    /// Spawn a child world of `n` ranks running `f`, placed on `machine`.
    /// Returns the parent-side inter-communicator. (The paper: "dynamic
    /// process creation and attachment e.g. can be used for
    /// realtime-visualization or computational steering".)
    pub fn spawn<F>(&self, n: usize, machine: MachineSpec, f: F) -> InterComm
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        assert!(n > 0, "cannot spawn an empty world");
        self.record(EventKind::Spawn, n as u64);
        let child_group = self.universe.register(n);
        let child_shared = Arc::default();
        let child_placement = Arc::new(Placement::single(n, machine));
        let f = Arc::new(f);
        for rank in 0..n {
            let comm = Comm::new(
                Arc::clone(&self.universe),
                Arc::clone(&child_group),
                rank,
                Arc::clone(&child_placement),
                Arc::clone(&child_shared),
                Some(Arc::clone(&self.group)),
            );
            let f = Arc::clone(&f);
            let h = std::thread::Builder::new()
                .name(format!("spawned-{rank}"))
                .spawn(move || f(comm))
                // Fires only when the OS refuses a thread: nothing to recover.
                .expect("failed to spawn child rank");
            self.universe.push_spawned(h);
        }
        self.intercomm(child_group)
    }

    /// The inter-communicator to the spawning parent, if this world was
    /// created via [`Comm::spawn`] (like `MPI_Comm_get_parent`).
    pub fn parent(&self) -> Option<InterComm> {
        self.parent.as_ref().map(|group| self.intercomm(Arc::clone(group)))
    }

    /// Rendezvous with another running component on a named port
    /// (`MPI_Comm_accept`/`MPI_Comm_connect`): both sides call with the
    /// same name; each receives an inter-communicator to the other's
    /// group. Panics if this rank is declared dead while it waits.
    pub fn attach(&self, port_name: &str) -> InterComm {
        let group = Arc::clone(&self.group);
        self.intercomm(self.universe.rendezvous(port_name, group, self.global_id()))
    }

    /// Like [`Comm::attach`] but with a rendezvous deadline: a partner
    /// that never shows up (or died before connecting) yields
    /// [`crate::CommError::Timeout`] instead of blocking on the port
    /// forever.
    pub fn attach_timeout(&self, port_name: &str, timeout: Duration) -> CommResult<InterComm> {
        let group = Arc::clone(&self.group);
        let remote_group =
            self.universe.rendezvous_deadline(port_name, group, self.global_id(), Some(timeout))?;
        Ok(self.intercomm(remote_group))
    }
}
