fn main() {
    gen::generate();
}
