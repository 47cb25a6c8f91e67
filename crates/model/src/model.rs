//! The full LLaMA-style model: embedding → blocks → final norm → fused LM
//! head + loss.

use crate::attention::AttnExec;
use crate::block::TransformerBlock;
use crate::checkpoint::{backward_blocks, forward_blocks_prec, ActPrecision, Strategy};
use crate::embedding::Embedding;
use crate::norm::RmsNorm;
use crate::param::{AdamCfg, Param};
use burst_kernels::lmhead::{fused_lm_loss_with_blocks, naive_lm_loss};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    pub layers: usize,
    pub d_model: usize,
    pub heads: usize,
    pub d_ff: usize,
    pub vocab: usize,
    /// Global sequence length.
    pub seq_len: usize,
    /// Rotary position embeddings on Q/K (LLaMA).
    pub rope: bool,
}

impl ModelConfig {
    /// A tiny configuration for tests and examples.
    pub fn tiny() -> Self {
        ModelConfig {
            layers: 2,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            vocab: 31,
            seq_len: 32,
            rope: true,
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        let block = 4 * self.d_model * self.d_model        // QKVO
            + 3 * self.d_model * self.d_ff                 // SwiGLU
            + 2 * self.d_model; // two norms
        self.vocab * self.d_model * 2                       // embed + head
            + self.layers * block
            + self.d_model // final norm
    }
}

/// A trainable model instance. Seeded construction is deterministic, so
/// every rank builds identical replicas.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Model {
    pub cfg: ModelConfig,
    pub embed: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub final_norm: RmsNorm,
    pub head: Param,
    /// Fused LM head tile sizes `(B_s, B_v)`; `None` = unfused reference.
    pub lm_tiles: Option<(usize, usize)>,
}

/// Result of one forward+backward pass.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Sum of per-token losses over the *local* rows.
    pub loss_sum: f32,
    /// Number of local rows.
    pub tokens: usize,
    /// Peak live logits elements in the LM head (Fig. 8's quantity).
    pub peak_logits_elems: usize,
}

impl Model {
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        Model {
            cfg,
            embed: Embedding::new(cfg.vocab, cfg.d_model, seed),
            blocks: (0..cfg.layers)
                .map(|l| {
                    let mut b = TransformerBlock::new(
                        cfg.d_model,
                        cfg.heads,
                        cfg.d_ff,
                        seed + 1000 * (l as u64 + 1),
                    );
                    b.attn.rope = cfg.rope;
                    b
                })
                .collect(),
            final_norm: RmsNorm::new(cfg.d_model),
            head: Param::randn(cfg.vocab, cfg.d_model, 0.02, seed + 999_983),
            lm_tiles: Some((32, 64)),
        }
    }

    /// Every parameter, for optimizer steps and gradient synchronisation
    /// (stable order across ranks).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = vec![&mut self.embed.table];
        for b in &mut self.blocks {
            ps.push(&mut b.norm1.weight);
            ps.push(&mut b.attn.wq.weight);
            ps.push(&mut b.attn.wk.weight);
            ps.push(&mut b.attn.wv.weight);
            ps.push(&mut b.attn.wo.weight);
            ps.push(&mut b.norm2.weight);
            ps.push(&mut b.ffn.w_gate.weight);
            ps.push(&mut b.ffn.w_up.weight);
            ps.push(&mut b.ffn.w_down.weight);
        }
        ps.push(&mut self.final_norm.weight);
        ps.push(&mut self.head);
        ps
    }

    /// Read-only view of every parameter, in the same stable order as
    /// [`Model::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        let mut ps: Vec<&Param> = vec![&self.embed.table];
        for b in &self.blocks {
            ps.push(&b.norm1.weight);
            ps.push(&b.attn.wq.weight);
            ps.push(&b.attn.wk.weight);
            ps.push(&b.attn.wv.weight);
            ps.push(&b.attn.wo.weight);
            ps.push(&b.norm2.weight);
            ps.push(&b.ffn.w_gate.weight);
            ps.push(&b.ffn.w_up.weight);
            ps.push(&b.ffn.w_down.weight);
        }
        ps.push(&self.final_norm.weight);
        ps.push(&self.head);
        ps
    }

    /// Total scalars in the flat training state ([`Model::flat_state`]).
    pub fn flat_state_len(&self) -> usize {
        self.params().iter().map(|p| p.state_len()).sum()
    }

    /// The entire training state — weights, gradients and Adam moments of
    /// every parameter, in [`Model::params`] order — as one flat vector.
    /// This is the layout sharded checkpoints split across ranks.
    pub fn flat_state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.flat_state_len());
        for p in self.params() {
            p.append_state(&mut out);
        }
        out
    }

    /// Restore the entire training state from a flat vector written by
    /// [`Model::flat_state`]. Panics on length mismatch.
    pub fn load_flat_state(&mut self, src: &[f32]) {
        let want: usize = self.flat_state_len();
        assert_eq!(src.len(), want, "Model::load_flat_state: length mismatch");
        let mut off = 0;
        for p in self.params_mut() {
            let n = p.state_len();
            p.load_state(&src[off..off + n]);
            off += n;
        }
    }

    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// One Adam update on every parameter (`t` 1-based).
    pub fn adam_step(&mut self, cfg: &AdamCfg, t: u64) {
        for p in self.params_mut() {
            p.adam_step(cfg, t);
        }
    }

    /// Forward + backward over this rank's token rows.
    ///
    /// `tokens`/`targets` are the local rows (layout order); the loss
    /// gradient is scaled by `1/global_tokens` so that summing parameter
    /// gradients across ranks yields the gradient of the *global* mean
    /// loss.
    pub fn train_step<E: AttnExec>(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        exec: &mut E,
        strategy: Strategy,
        global_tokens: usize,
    ) -> StepOutput {
        self.train_step_prec(
            tokens,
            targets,
            exec,
            strategy,
            global_tokens,
            ActPrecision::F32,
        )
    }

    /// [`Model::train_step`] at an explicit activation-stash precision:
    /// under [`ActPrecision::Bf16`] every checkpointed block input and
    /// cached attention output is held at 2 bytes per element, halving the
    /// stash the executor bills to its ledger.
    pub fn train_step_prec<E: AttnExec>(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        exec: &mut E,
        strategy: Strategy,
        global_tokens: usize,
        precision: ActPrecision,
    ) -> StepOutput {
        assert_eq!(tokens.len(), targets.len(), "train_step: token/target");
        // ---- forward ----
        let x = self.embed.forward(tokens);
        let (h, stored) = forward_blocks_prec(
            &self.blocks,
            &x,
            exec,
            strategy,
            self.cfg.seq_len,
            precision,
        );
        let (hn, norm_saved) = self.final_norm.forward(&h);
        // ---- fused LM head + loss (forward AND backward, Algorithm 3) ----
        let lm = match self.lm_tiles {
            Some((bs, bv)) => fused_lm_loss_with_blocks(&hn, &self.head.w, targets, bs, bv),
            None => naive_lm_loss(&hn, &self.head.w, targets),
        };
        let loss_sum: f32 = lm.losses.iter().sum();
        // Rescale mean-of-local to global mean.
        let rescale = tokens.len() as f32 / global_tokens as f32;
        self.head.grad.axpy(rescale, &lm.grad_w);
        let grad_hn = lm.grad_h.scaled(rescale);
        // ---- backward ----
        let grad_h = self.final_norm.backward(&norm_saved, &grad_hn);
        let grad_x = backward_blocks(&mut self.blocks, stored, &grad_h, exec);
        self.embed.backward(tokens, &grad_x);
        StepOutput {
            loss_sum,
            tokens: tokens.len(),
            peak_logits_elems: lm.peak_logits_elems,
        }
    }

    /// Forward only (inference/eval): returns per-position losses.
    pub fn eval_loss<E: AttnExec>(&self, tokens: &[usize], targets: &[usize], exec: &mut E) -> f32 {
        let x = self.embed.forward(tokens);
        let mut cur = x;
        for b in &self.blocks {
            cur = b.forward_nosave(&cur, exec);
        }
        let hn = self.final_norm.forward_nosave(&cur);
        let lm = naive_lm_loss(&hn, &self.head.w, targets);
        lm.loss
    }

    /// Logits of the next token after `tokens` (single-device forward).
    pub fn next_token_logits<E: AttnExec>(&self, tokens: &[usize], exec: &mut E) -> Vec<f32> {
        let x = self.embed.forward(tokens);
        let mut cur = x;
        for b in &self.blocks {
            cur = b.forward_nosave(&cur, exec);
        }
        let hn = self.final_norm.forward_nosave(&cur);
        let last = hn.slice_rows(hn.rows() - 1, hn.rows());
        last.matmul_nt(&self.head.w).into_vec()
    }

    /// Greedy decoding: extend `prompt` by `new_tokens` tokens.
    /// `make_exec` builds a single-device executor for the current length
    /// (masks are length-dependent).
    pub fn generate<E: AttnExec>(
        &self,
        prompt: &[usize],
        new_tokens: usize,
        mut make_exec: impl FnMut(usize) -> E,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "generate: empty prompt");
        let mut tokens = prompt.to_vec();
        for _ in 0..new_tokens {
            let mut exec = make_exec(tokens.len());
            let logits = self.next_token_logits(&tokens, &mut exec);
            let next = logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            tokens.push(next);
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::LocalExec;
    use burst_kernels::AttnMask;

    fn toy_data(cfg: &ModelConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        // A deterministic periodic token stream the model can memorise.
        let tokens: Vec<usize> = (0..cfg.seq_len)
            .map(|i| (i * 7 + seed as usize) % cfg.vocab)
            .collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn param_count_formula_matches_actual() {
        let cfg = ModelConfig::tiny();
        let mut m = Model::new(cfg, 1);
        let actual: usize = m.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(actual, cfg.param_count());
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = ModelConfig::tiny();
        let mut m = Model::new(cfg, 2);
        let (tokens, targets) = toy_data(&cfg, 3);
        let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
        let adam = AdamCfg {
            lr: 3e-3,
            ..AdamCfg::default()
        };
        let initial = m.eval_loss(&tokens, &targets, &mut exec);
        for t in 1..=60 {
            m.zero_grads();
            m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
            m.adam_step(&adam, t);
        }
        let final_loss = m.eval_loss(&tokens, &targets, &mut exec);
        assert!(
            final_loss < initial * 0.5,
            "loss {initial} → {final_loss} after 60 steps"
        );
    }

    #[test]
    fn fused_and_naive_lm_head_agree_in_training() {
        let cfg = ModelConfig::tiny();
        let (tokens, targets) = toy_data(&cfg, 5);
        let run = |fused: bool| {
            let mut m = Model::new(cfg, 7);
            m.lm_tiles = if fused { Some((8, 8)) } else { None };
            let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
            m.zero_grads();
            let out = m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
            (
                out.loss_sum,
                m.head.grad.clone(),
                m.embed.table.grad.clone(),
            )
        };
        let (l1, hg1, eg1) = run(true);
        let (l2, hg2, eg2) = run(false);
        assert!((l1 - l2).abs() / l2.abs() < 1e-4, "loss {l1} vs {l2}");
        burst_tensor::testutil::assert_allclose(&hg1, &hg2, 1e-4, "head grads");
        burst_tensor::testutil::assert_allclose(&eg1, &eg2, 1e-4, "embed grads");
    }

    #[test]
    fn checkpoint_strategies_agree_end_to_end() {
        let cfg = ModelConfig::tiny();
        let (tokens, targets) = toy_data(&cfg, 9);
        let run = |strategy: Strategy| {
            let mut m = Model::new(cfg, 11);
            let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
            m.zero_grads();
            let out = m.train_step(&tokens, &targets, &mut exec, strategy, cfg.seq_len);
            let state: Vec<u32> = m.flat_state().iter().map(|x| x.to_bits()).collect();
            (out.loss_sum.to_bits(), state)
        };
        let reference = run(Strategy::None);
        for strategy in [
            Strategy::Full,
            Strategy::SelectivePlusPlus,
            Strategy::SeqSelective { rho: 0.5 },
        ] {
            let (loss, state) = run(strategy);
            assert_eq!(loss, reference.0, "{strategy:?}: loss");
            assert!(state == reference.1, "{strategy:?}: state");
        }
    }

    #[test]
    fn generate_extends_prompt_deterministically() {
        let cfg = ModelConfig::tiny();
        let m = Model::new(cfg, 21);
        let prompt = [1usize, 2, 3];
        let out = m.generate(&prompt, 5, |n| LocalExec::new(AttnMask::Causal, n));
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &prompt);
        assert!(out.iter().all(|&t| t < cfg.vocab));
        let again = m.generate(&prompt, 5, |n| LocalExec::new(AttnMask::Causal, n));
        assert_eq!(out, again);
    }

    #[test]
    fn overfit_model_generates_the_training_continuation() {
        // Memorise a periodic stream, then greedy decoding must continue it.
        let cfg = ModelConfig {
            layers: 2,
            d_model: 24,
            heads: 2,
            d_ff: 48,
            vocab: 11,
            seq_len: 33,
            rope: true,
        };
        let mut m = Model::new(cfg, 22);
        let tokens: Vec<usize> = (0..cfg.seq_len).map(|i| i % 11).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % 11).collect();
        let adam = AdamCfg {
            lr: 5e-3,
            ..AdamCfg::default()
        };
        let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
        for t in 1..=150 {
            m.zero_grads();
            m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
            m.adam_step(&adam, t);
        }
        let out = m.generate(&tokens[..8], 6, |n| LocalExec::new(AttnMask::Causal, n));
        // Continuation of 0,1,...,7 is 8,9,10,0,1,2.
        assert_eq!(&out[8..], &[8, 9, 10, 0, 1, 2], "generated {:?}", &out[8..]);
    }

    #[test]
    fn fused_lm_head_caps_logit_memory() {
        let cfg = ModelConfig::tiny();
        let (tokens, targets) = toy_data(&cfg, 13);
        let mut m = Model::new(cfg, 15);
        m.lm_tiles = Some((4, 8));
        let mut exec = LocalExec::new(AttnMask::Causal, cfg.seq_len);
        m.zero_grads();
        let out = m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
        assert_eq!(out.peak_logits_elems, 4 * cfg.vocab);
        m.lm_tiles = None;
        m.zero_grads();
        let out2 = m.train_step(&tokens, &targets, &mut exec, Strategy::None, cfg.seq_len);
        assert_eq!(out2.peak_logits_elems, cfg.seq_len * cfg.vocab);
    }
}
