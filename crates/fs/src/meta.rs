//! Namespace metadata operations (the mdtest axis).
//!
//! Data-path evaluation alone misses the metadata axis that dominates
//! real cluster rankings (IO500's md phases), so every filesystem backend
//! also implements [`MetaOps`]: the five mdtest verbs over a flat
//! `(directory, file)` namespace. Directories are [`FileId`]s like files —
//! the models cost namespace updates without materializing a tree.
//!
//! Backends differ in what surrounding state an operation needs (the
//! local filesystem needs nothing, the NFS client needs the network and
//! its server, the PFS client needs the network), so the trait threads a
//! backend-chosen context type through each call.

use crate::file::FileId;
use simcore::Time;

/// The verb lives with the trace event that reports it.
pub use simcore::obs::MetaVerb;

/// Namespace metadata operations, implemented by every filesystem model.
///
/// `dir` is the containing directory; `target` is the file the verb acts
/// on (for `Mkdir`/`Readdir` the directory itself is the target).
pub trait MetaOps {
    /// Backend-specific state threaded through each call — `()` for the
    /// local filesystem, network + server handles for remote clients.
    type Ctx<'a>;
    /// Backend-specific failure type (`Infallible` for the local
    /// filesystem, timeout/unavailability errors for remote clients).
    type Error;

    /// Performs `verb`; returns the completion time.
    fn meta(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        verb: MetaVerb,
        dir: FileId,
        target: FileId,
    ) -> Result<Time, Self::Error>;

    /// Creates `file` inside `dir`.
    fn meta_create(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        dir: FileId,
        file: FileId,
    ) -> Result<Time, Self::Error> {
        self.meta(ctx, now, MetaVerb::Create, dir, file)
    }

    /// Stats `file` inside `dir`.
    fn meta_stat(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        dir: FileId,
        file: FileId,
    ) -> Result<Time, Self::Error> {
        self.meta(ctx, now, MetaVerb::Stat, dir, file)
    }

    /// Unlinks `file` from `dir`.
    fn meta_unlink(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        dir: FileId,
        file: FileId,
    ) -> Result<Time, Self::Error> {
        self.meta(ctx, now, MetaVerb::Unlink, dir, file)
    }

    /// Creates directory `dir`.
    fn meta_mkdir(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        dir: FileId,
    ) -> Result<Time, Self::Error> {
        self.meta(ctx, now, MetaVerb::Mkdir, dir, dir)
    }

    /// Lists directory `dir`.
    fn meta_readdir(
        &mut self,
        ctx: Self::Ctx<'_>,
        now: Time,
        dir: FileId,
    ) -> Result<Time, Self::Error> {
        self.meta(ctx, now, MetaVerb::Readdir, dir, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_labels_are_stable() {
        let labels: Vec<&str> = MetaVerb::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["mkdir", "create", "stat", "unlink", "readdir"]);
    }

    #[test]
    fn mutating_verbs() {
        assert!(MetaVerb::Create.mutates());
        assert!(MetaVerb::Unlink.mutates());
        assert!(MetaVerb::Mkdir.mutates());
        assert!(!MetaVerb::Stat.mutates());
        assert!(!MetaVerb::Readdir.mutates());
    }
}
