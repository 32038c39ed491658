fn main() {
    demo::used_by_bench();
}
