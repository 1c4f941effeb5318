use fixture_rs::app::run;

fn main() {
    run();
}
