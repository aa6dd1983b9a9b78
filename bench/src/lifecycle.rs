//! Source text → verified module → JIT-ed VM, one span per layer call.
//! Set-up of the steady workloads and the timed region of `cold` are the
//! same code, so a front-end or JIT change shows in both places.

use crate::run::Metrics;
use crate::spans::Recorder;
use hpcnet_cil::{verify_module, MethodId, Module};
use hpcnet_minics::{codegen, lexer, parser, STARTUP_INIT};
use hpcnet_vm::{OptShare, Tier, Vm, VmProfile};
use std::sync::Arc;

/// Work counted at the layer boundaries while programs are built.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub src_bytes: u64,
    pub tokens: u64,
    pub cil_methods: u64,
    pub cil_ops: u64,
    pub methods_jitted: u64,
    pub rir_insts: u64,
    pub spills: u64,
}

impl Tally {
    pub fn metrics(&self, m: &mut Metrics) {
        m.set("minics.src_bytes", self.src_bytes as f64);
        m.set("minics.tokens", self.tokens as f64);
        m.set("cil.methods", self.cil_methods as f64);
        m.set("cil.ops", self.cil_ops as f64);
        m.set("rir.methods_jitted", self.methods_jitted as f64);
        m.set("rir.insts", self.rir_insts as f64);
        m.set("rir.spills", self.spills as f64);
    }
}

/// `minics.lex` is timed on its own call; `parser::parse` lexes again
/// internally, so `minics.parse` includes a second lex.
pub fn compile_program(
    src: &str,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Arc<Module>, String> {
    let tokens = rec
        .span("minics.lex", || lexer::lex(src))
        .map_err(|e| format!("lex: {}", e.message))?;
    let prog = rec
        .span("minics.parse", || parser::parse(src))
        .map_err(|e| e.to_string())?;
    let mut module = rec
        .span("minics.codegen", || codegen::emit(&prog))
        .map_err(|e| e.to_string())?;
    rec.span("cil.verify", || verify_module(&mut module))
        .map_err(|e| format!("verify: {e}"))?;
    tally.src_bytes += src.len() as u64;
    tally.tokens += tokens.len() as u64;
    tally.cil_methods += module.methods.len() as u64;
    tally.cil_ops += module
        .methods
        .iter()
        .map(|m| m.body.code.len() as u64)
        .sum::<u64>();
    Ok(Arc::new(module))
}

/// Build a VM, run the static initializer, and JIT every method that has
/// a body, so no compile is left for the first call.
pub fn build_vm(
    module: &Arc<Module>,
    share: &Arc<OptShare>,
    profile: VmProfile,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Arc<Vm>, String> {
    let vm = rec.span("vm.new", || {
        let vm = Vm::new_shared(module.clone(), profile);
        vm.set_opt_share(share.clone());
        vm
    });
    if module.find_method(STARTUP_INIT).is_some() {
        rec.span("vm.startup", || vm.invoke_by_name(STARTUP_INIT, vec![]))
            .map_err(|e| format!("static initializer: {e}"))?;
    }
    let bodies = (0..module.methods.len() as u32)
        .map(MethodId)
        .filter(|&m| !module.method(m).body.code.is_empty());
    let mut count = |rir: &hpcnet_vm::RirMethod| {
        tally.methods_jitted += 1;
        tally.rir_insts += rir.code.len() as u64;
        tally.spills += u64::from(rir.n_pspill) + u64::from(rir.n_rspill);
    };
    match profile.tier {
        Tier::Interpreter => {}
        Tier::Rir => {
            let s = rec.enter("vm.jit.exec");
            for m in bodies {
                count(&*vm.compiled(m).map_err(|e| format!("jit: {e}"))?);
            }
            rec.exit(s);
        }
        Tier::Compiled => {
            let s = rec.enter("vm.jit.threaded");
            for m in bodies {
                count(&vm.threaded(m).map_err(|e| format!("jit: {e}"))?.rir);
            }
            rec.exit(s);
        }
    }
    Ok(vm)
}
