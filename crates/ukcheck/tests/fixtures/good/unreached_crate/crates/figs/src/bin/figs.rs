fn main() {
    stats::report();
}
