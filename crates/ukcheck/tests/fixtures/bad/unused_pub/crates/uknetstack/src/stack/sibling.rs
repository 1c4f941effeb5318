// Inside the crate's own `src/`: a mention here keeps nothing public.
fn caller() -> usize {
    super::part::orphan()
}
