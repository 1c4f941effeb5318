pub fn go() {}
