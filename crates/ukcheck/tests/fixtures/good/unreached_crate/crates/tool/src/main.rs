fn main() {
    net::go();
}
