pub fn generate() {
    codec::encode();
}
