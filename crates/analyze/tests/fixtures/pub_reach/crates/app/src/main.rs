use demo::OnlyImported;
use demo::{
    reached_and_waived,
    used_by_app,
};

fn main() {
    println!("{}", used_by_app());
    reached_and_waived();
}
