//! File identity.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A file identifier, unique within one filesystem instance.
///
/// Path resolution lives in the layers above (the MPI-IO runtime maps file
/// names to ids); the filesystem models only need identity.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(FileId(3).to_string(), "file#3");
        assert!(FileId(1) < FileId(2));
    }
}
