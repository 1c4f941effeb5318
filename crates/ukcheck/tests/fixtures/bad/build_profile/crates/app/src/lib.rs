//! A member crate that shadows the profile.
