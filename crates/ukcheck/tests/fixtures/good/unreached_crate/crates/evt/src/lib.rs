pub struct Queue;
