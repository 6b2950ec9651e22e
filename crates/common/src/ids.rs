//! Strongly-typed identifiers.
//!
//! Newtypes keep GPU indices, node indices, serving-group indices and request
//! ids from being confused with one another (C-NEWTYPE).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index value.
            ///
            /// ```
            /// # use ts_common::ids::*;
            #[doc = concat!("assert_eq!(", stringify!($name), "(3).index(), 3);")]
            /// ```
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies a single physical GPU within a [`crate::plan::DeploymentPlan`]'s cluster.
    GpuId,
    u32
);
id_type!(
    /// Identifies a node (machine / cloud instance) hosting one or more GPUs.
    NodeId,
    u32
);
id_type!(
    /// Identifies a model serving group (one model replica) within a plan.
    GroupId,
    u32
);
id_type!(
    /// Identifies an inference request.
    RequestId,
    u64
);
id_type!(
    /// Identifies a served model within a multi-model deployment.
    ///
    /// `ModelId(0)` is the default identity: plan files written before
    /// multi-model support parse to it (`plan_io`), and single-model
    /// deployments leave it implicit everywhere.
    ModelId,
    u32
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = GpuId(1);
        let b = GpuId(2);
        assert!(a < b);
        let set: HashSet<GpuId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_contains_type_and_value() {
        assert_eq!(NodeId(7).to_string(), "NodeId(7)");
        assert_eq!(RequestId(42).to_string(), "RequestId(42)");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(GroupId::from(5u32).index(), 5);
    }
}
