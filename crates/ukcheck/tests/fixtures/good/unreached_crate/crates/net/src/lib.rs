pub fn go() {
    plat::init();
}
