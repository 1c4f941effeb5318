pub fn init() {}
