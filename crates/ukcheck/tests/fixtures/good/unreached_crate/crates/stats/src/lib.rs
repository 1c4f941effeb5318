pub fn report() {}
