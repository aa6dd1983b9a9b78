//! The stack shapes `verify_module` records are `verify_method`'s entry
//! stacks reduced to kinds, for every method of every Grande source.

use hpcnet_cil::verify::{verify_method, VerTy};
use hpcnet_cil::{verify_module, MethodId, NumTy};
use std::path::Path;

type Shape = Option<Vec<Option<NumTy>>>;

#[test]
fn recorded_shapes_are_the_verified_entry_stacks_reduced_to_kinds() {
    let sources = Path::new(env!("CARGO_MANIFEST_DIR")).join("../grande/src/sources");
    let mut files: Vec<_> = std::fs::read_dir(&sources)
        .expect("grande sources")
        .flat_map(|dir| std::fs::read_dir(dir.expect("entry").path()).expect("group dir"))
        .map(|f| f.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cs"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "found {} Grande sources", files.len());
    let mut methods = 0;
    for file in files {
        let src = std::fs::read_to_string(&file).expect("readable");
        let mut module = hpcnet_minics::compile(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        verify_module(&mut module).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for id in (0..module.methods.len() as u32).map(MethodId) {
            let label = format!("{} / {}", file.display(), module.method(id).name);
            let info = verify_method(&module, id).expect("verified once already");
            let want: Vec<Shape> = info
                .stack_in
                .iter()
                .map(|st| st.as_ref().map(|st| st.iter().map(VerTy::num).collect()))
                .collect();
            let body = &module.method(id).body;
            let shapes = body.stack_shapes.as_ref().expect("recorded");
            let got: Vec<Shape> = shapes.iter().map(|st| st.map(<[_]>::to_vec)).collect();
            assert_eq!(shapes.len(), body.code.len(), "{label}");
            assert_eq!(got, want, "{label}");
            assert_eq!(shapes.max_depth(), body.max_stack, "{label}");
            methods += 1;
        }
    }
    assert!(methods > 300, "checked {methods} methods");
}
