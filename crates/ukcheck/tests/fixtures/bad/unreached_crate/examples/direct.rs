use only::helper;

fn main() {
    helper();
}
