pub fn fixture_data() {}
