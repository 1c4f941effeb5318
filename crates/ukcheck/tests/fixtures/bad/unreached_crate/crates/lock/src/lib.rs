pub struct Mutex;
