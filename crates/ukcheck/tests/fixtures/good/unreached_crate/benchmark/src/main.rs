fn main() {
    perf::measure();
}
