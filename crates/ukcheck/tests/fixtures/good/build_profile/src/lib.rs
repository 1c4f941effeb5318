//! Shipped code, so the walker has something to scan.
