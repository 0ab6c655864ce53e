//! One module per rule. Rules 1–5 and 9 are per-file token rules; rules
//! 6–8 are workspace graph rules built on the [`model`](crate::model).

pub(crate) mod blocking;
pub(crate) mod capability;
pub(crate) mod lock_order;
pub(crate) mod metric;
pub(crate) mod panic;
pub(crate) mod pool;
pub(crate) mod unsafe_code;
pub(crate) mod wire_drift;
pub(crate) mod wire_exhaustive;
