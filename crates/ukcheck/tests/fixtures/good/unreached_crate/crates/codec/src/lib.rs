pub fn encode() {}
