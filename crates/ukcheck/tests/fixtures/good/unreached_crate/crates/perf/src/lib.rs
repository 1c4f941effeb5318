pub fn measure() {}
