pub use uk_app as app;
pub use evt as event;
