//! A member crate with no profile of its own.
