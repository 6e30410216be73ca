//! Fixture: metric-name discipline sites. Deliberately violating —
//! excluded from the workspace scan.

pub fn record(reg: &mut Registry, id: u64, dynamic: &'static str) {
    reg.counter_add("decisions", Scope::Global, 1); // fine: literal
    reg.counter_add(&format!("decisions_{id}"), Scope::Global, 1); // finding
    reg.gauge_set(dynamic, Scope::Global, 1.0); // finding
    reg.histogram_observe(name_for(id), Scope::Global, 0.5); // finding
    reg.counter_add(concat!("a", "b"), Scope::Global, 1); // finding
    reg.gauge_set(r#"idle_ratio"#, Scope::Global, 0.0); // fine: raw literal
    // lint:allow(metric-name-discipline): migration shim keeps a legacy dynamic name
    reg.histogram_observe(dynamic, Scope::Global, 1e-9);
}

pub fn counter_add(reg: &mut Registry, name: &'static str) {
    reg.counter_add(name, Scope::Global, 1); // finding: forwarded name
}

#[cfg(test)]
mod tests {
    #[test]
    fn dynamic_names_are_fine_in_test_code() {
        let mut reg = Registry::default();
        let n = String::from("m1");
        reg.gauge_set(&n, Scope::Global, 0.0);
    }
}
