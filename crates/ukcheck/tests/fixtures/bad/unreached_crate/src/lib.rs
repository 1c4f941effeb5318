pub use lock as sync;
