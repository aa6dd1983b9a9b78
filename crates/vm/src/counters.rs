//! One declaration per counter family.
//!
//! Three families of exact counts explain a run by mechanism: the VM-wide
//! [`crate::Counters`] (calls, throws, JIT compiles, what the optimizer
//! removed), the observer's per-method counts ([`crate::MethodProfile`])
//! and one compile's per-pass [`crate::JitOutcome`]. Each is one
//! [`counters!`] list next to the type it declares; a row is a counter's
//! name and its doc comment, and adding a counter is adding a row. The
//! PROFILE emitters and validator iterate the generated view rather than
//! naming counters.

/// Declare a counter family from one list of rows.
///
/// ```text
/// counters! {
///     #[derive(Debug, Default)]
///     pub struct Cells;                     // optional: the atomic cells
///     #[derive(Clone, Debug, ...)]
///     pub struct Values { pub id: Id }      // optional non-counter fields
///     counts {
///         /// What `a` counts.
///         a,
///         b,
///         /// A derived row: no cell, the sum of the rows it names.
///         total = a + b,
///     }
/// }
/// ```
///
/// `Values` gets one `pub u64` field per row, in row order, plus
/// `Values::NAMES` and `Values::fields()`, the `(name, value)` view in row
/// order. With a cells struct, `Cells` gets one `pub AtomicU64` per stored
/// row and `Cells::snapshot(extra fields…) -> Values` (relaxed loads),
/// and `Values::delta` subtracts field-wise, saturating at zero. Derived
/// rows are computed from the values snapshot or delta produced, so they
/// agree with their parts by construction.
macro_rules! counters {
    (
        $(#[$cm:meta])* $cv:vis struct $Cells:ident;
        $(#[$vm:meta])* pub struct $Values:ident
            $({ $($(#[$xd:meta])* pub $x:ident: $xt:ty),* $(,)? })?
        counts { $($(#[$d:meta])* $f:ident $(= $g0:ident $(+ $g:ident)*)?),* $(,)? }
    ) => {
        $crate::counters::counters!(@cells {$(#[$cm])* $cv struct $Cells} []
            $($(#[$d])* $f $(= $g0 $(+ $g)*)?,)*);
        $crate::counters::counters! {
            $(#[$vm])* pub struct $Values $({ $($(#[$xd])* pub $x: $xt),* })?
            counts { $($(#[$d])* $f),* }
        }
        impl $Cells {
            /// Every counter's current value (relaxed loads: counters are
            /// monotonic event counts, not synchronization).
            pub fn snapshot(&self, $($($x: $xt),*)?) -> $Values {
                let mut v = $Values {
                    $($($x,)*)?
                    $($f: $crate::counters::counters!(@load self $f $(= $g0)?),)*
                };
                v.derive();
                v
            }
        }
        impl $Values {
            /// Counter activity since `earlier`: field-wise saturating
            /// subtraction, so a mismatched pair (or a restarted VM)
            /// degrades to zero instead of wrapping to 2^64.
            pub fn delta(&self, earlier: &$Values) -> $Values {
                let mut v = $Values {
                    $($($x: self.$x.clone(),)*)?
                    $($f: self.$f.saturating_sub(earlier.$f),)*
                };
                v.derive();
                v
            }

            fn derive(&mut self) {
                $($(self.$f = self.$g0 $(+ self.$g)*;)?)*
            }
        }
    };
    (
        $(#[$vm:meta])* pub struct $Values:ident
            $({ $($(#[$xd:meta])* pub $x:ident: $xt:ty),* $(,)? })?
        counts { $($(#[$d:meta])* $f:ident),* $(,)? }
    ) => {
        $(#[$vm])*
        pub struct $Values {
            $($($(#[$xd])* pub $x: $xt,)*)?
            $($(#[$d])* pub $f: u64,)*
        }
        impl $Values {
            /// Counter names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($f)),*];

            /// `(name, value)` of every counter, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); $Values::NAMES.len()] {
                [$((stringify!($f), self.$f)),*]
            }
        }
    };
    // The cells struct: one `AtomicU64` per stored row, none per derived row.
    (@cells {$(#[$cm:meta])* $cv:vis struct $Cells:ident} [$($acc:tt)*]) => {
        $(#[$cm])* $cv struct $Cells { $($acc)* }
    };
    (@cells $head:tt [$($acc:tt)*] $(#[$d:meta])* $f:ident = $g0:ident $(+ $g:ident)*, $($rest:tt)*) => {
        $crate::counters::counters!(@cells $head [$($acc)*] $($rest)*);
    };
    (@cells $head:tt [$($acc:tt)*] $(#[$d:meta])* $f:ident, $($rest:tt)*) => {
        $crate::counters::counters!(@cells $head
            [$($acc)* $(#[$d])* pub $f: ::std::sync::atomic::AtomicU64,] $($rest)*);
    };
    (@load $cells:ident $f:ident) => {
        $cells.$f.load(::std::sync::atomic::Ordering::Relaxed)
    };
    (@load $cells:ident $f:ident = $g0:ident) => {
        0
    };
}

pub(crate) use counters;

#[cfg(test)]
mod tests {
    use crate::{CountersSnapshot, JitOutcome, MethodProfile};

    /// A counter is described where readers of the PROFILE artifact look.
    #[test]
    fn every_counter_is_documented() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for names in [CountersSnapshot::NAMES, MethodProfile::NAMES, JitOutcome::NAMES] {
            for name in names {
                assert!(
                    doc.contains(&format!("`{name}`")),
                    "docs/OBSERVABILITY.md does not describe `{name}`"
                );
            }
        }
    }
}
