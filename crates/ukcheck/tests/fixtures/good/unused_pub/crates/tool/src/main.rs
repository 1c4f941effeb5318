fn main() {
    std::process::exit(tool::run());
}
