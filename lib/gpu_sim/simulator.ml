(** SIMT execution engine with IPDOM-based reconvergence.

    Models the execution substrate of the paper's evaluation platform
    (an AMD Vega-class GPU) at the fidelity the evaluation needs:

    - threads are grouped into warps ([warp_size] lanes, default 64 like
      an AMD wavefront) that issue instructions in lock-step under an
      active mask;
    - each warp maintains a SIMT reconvergence stack: a divergent
      conditional branch pushes one frame per taken arm with the
      reconvergence point set to the branch block's immediate
      post-dominator, and the parent frame resumes there once both arms
      have drained — the IPDOM reconvergence scheme of §I/§II;
    - every issued instruction costs its {!Darm_analysis.Latency} value
      in cycles {e per issue}, so a divergent region pays for both arms
      serially while a melded region pays once — the first-order effect
      behind all of the paper's speedups;
    - [syncthreads] suspends a warp until every warp of its block
      reaches the barrier;
    - the counters of {!Metrics} correspond to the rocprof counters used
      in §VI (ALU utilization, vector/LDS/flat memory instructions).

    Integer arithmetic is uniformly two's-complement i32 via
    {!Darm_ir.I32} — the same evaluator the constant folder uses.

    The interpreter runs over a {e pre-decoded} function representation
    built once per launch by {!prepare}: per-block instruction arrays
    (no list walks on the hot path), dense instruction ids indexing a
    flat register file (no hash lookups per operand), memoized
    per-instruction latencies and classifications, and reusable scratch
    buffers for memory-transaction accounting.

    The interpreter is also the correctness oracle: tests run the same
    kernel before and after melding and require bit-identical memory. *)

open Darm_ir
open Darm_ir.Ssa
open Memory

(** Parameters of the hierarchical memory model.  The cache line equals
    the 32-cell coalescing segment, so the L1 is indexed by segment
    number; capacity = [l1_sets * l1_ways] lines. *)
type hier_params = {
  l1_sets : int;  (** direct set count (power of two not required) *)
  l1_ways : int;  (** associativity, LRU replacement *)
  l1_hit_lat : int;  (** charged when every touched segment is resident *)
  l1_miss_lat : int;
      (** charged when any segment misses; also the slot occupancy time
          of the in-flight (MSHR) tracker *)
  txn_cycles : int;
      (** serialization cost of each coalesced segment beyond the
          first — the latency face of the transaction counter *)
  lds_conflict_cycles : int;
      (** cycles per extra LDS serialization phase (bank conflicts) *)
  mshr : int;
      (** bounded in-flight segment requests; a miss with every slot
          busy stalls issue until the earliest completes *)
}

let default_hier_params : hier_params =
  {
    l1_sets = 64;
    l1_ways = 4;
    l1_hit_lat = 28;
    l1_miss_lat = 180;
    txn_cycles = 4;
    lds_conflict_cycles = 2;
    mshr = 32;
  }

(** Memory model selector: [Flat] charges every access its static
    {!Darm_analysis.Latency} value — the original behaviour,
    bit-for-bit; [Hier] routes global traffic through coalescing, the
    L1 and the MSHR tracker and serializes LDS bank conflicts, so the
    charged latency depends on the dynamic access pattern. *)
type mem_model = Flat | Hier of hier_params

(** Parameters of independent thread scheduling.  There are none; the
    interface keeps the type abstract so configurations keep spelling
    [Its default_its_params]. *)
type its_params = unit

let default_its_params : its_params = ()

(** Reconvergence model selector: [Stack] is the IPDOM SIMT
    reconvergence stack — the original behaviour, bit-for-bit; [Its] is
    Volta-style independent thread scheduling, where every lane carries
    its own PC and active/blocked state and the warp scheduler issues
    for the runnable group of lanes sharing the minimal PC each cycle
    (MinPC), reconverging opportunistically when PCs coincide. *)
type reconvergence = Stack | Its of its_params

type config = {
  warp_size : int;
  latency : Darm_analysis.Latency.config;
  max_cycles_per_warp : int;
      (** runaway-loop guard, checked before every issue and charged by
          every issue, barriers included.  Under [Stack] the warp owns
          one budget (lock-step issue); under [Its] each lane owns one,
          so interleaving more lanes never trips the guard earlier than
          lock-step execution would. *)
  mem_model : mem_model;
      (** memory subsystem model; [Flat] (the default) keeps per-opcode
          latencies, [Hier] makes coalescing/L1/LDS behaviour
          latency-bearing.  Per-site attribution ({!Metrics.site_stats})
          is collected under both. *)
  reconvergence : reconvergence;
      (** divergence handling model; [Stack] (the default) is the IPDOM
          SIMT stack, [Its] independent thread scheduling.  Orthogonal
          to [mem_model]: all four combinations are valid. *)
  obs : Darm_obs.Trace.t option;
      (** structured divergence timeline: per-warp [warp.diverge] /
          [warp.reconverge] / [warp.barrier] instants and per-block
          cycle spans, timestamped with the deterministic cycle
          counter.  [None] (the default) emits nothing. *)
  obs_pid : int;
      (** pid stamped on this run's [obs] events, so two simulations
          (e.g. baseline and melded) can share one buffer without
          their tracks colliding *)
}

let default_config : config =
  {
    warp_size = 64;
    latency = Darm_analysis.Latency.default;
    max_cycles_per_warp = 400_000_000;
    mem_model = Flat;
    reconvergence = Stack;
    obs = None;
    obs_pid = 1;
  }

exception Sim_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

let eval_ibin (op : Op.ibinop) (x : int) (y : int) : int =
  match I32.eval op x y with
  | Some v -> v
  | None -> (
      match op with
      | Op.Sdiv -> errf "sdiv by zero"
      | _ -> errf "srem by zero")

let eval_fbin (op : Op.fbinop) (x : float) (y : float) : float =
  match op with
  | Op.Fadd -> x +. y
  | Op.Fsub -> x -. y
  | Op.Fmul -> x *. y
  | Op.Fdiv -> x /. y
  | Op.Fmin -> Float.min x y
  | Op.Fmax -> Float.max x y

let eval_icmp (p : Op.icmp_pred) (x : int) (y : int) : bool =
  I32.compare_i32 p x y

let eval_fcmp (p : Op.fcmp_pred) (x : float) (y : float) : bool =
  match p with
  | Op.Foeq -> x = y
  | Op.Fone -> x <> y
  | Op.Folt -> x < y
  | Op.Fole -> x <= y
  | Op.Fogt -> x > y
  | Op.Foge -> x >= y

(* ------------------------------------------------------------------ *)
(* Pre-decoded function representation *)

(** Decoded operand: everything an operand fetch needs without touching
    the IR or a hash table. *)
type dop =
  | Dconst of rv  (** literal, canonicalized to i32 at decode time *)
  | Dslot of int  (** register slot of the defining instruction *)
  | Dparam of int  (** kernel argument index *)
  | Dundef
  | Dmissing of string * string
      (** phi hole: (block name, pred name) — trap if ever read *)

type mem_class = Mc_none | Mc_global | Mc_shared | Mc_flat

(** Decoded instruction: opcode plus memoized latency, classification
    and operand/successor arrays.  [d_orig] is kept only for error
    context. *)
type dinstr = {
  d_op : Op.t;
  d_slot : int;  (** destination register slot *)
  d_lat : int;  (** memoized issue latency *)
  d_alu : bool;  (** memoized [Op.is_alu] *)
  d_mem : mem_class;  (** static pointer class of a memory access *)
  d_ptr : int;  (** pointer operand index for load/store, -1 otherwise *)
  d_site : int;
      (** dense static access-site index for load/store ([fctx.sites]
          maps it to the stable "<block>#<k>" id), -1 otherwise *)
  d_ops : dop array;
  d_succ : int array;  (** dense successor block indices *)
  d_imm : int;  (** [Alloc_shared]: offset into shared memory *)
  d_orig : instr;
}

type dphi = {
  p_slot : int;
  p_inc : dop array;  (** incoming value, indexed by dense pred index *)
}

type dblock = {
  db_name : string;
  db_phis : dphi array;
  db_code : dinstr array;  (** body + terminator, phis excluded *)
  db_ipdom : int;  (** reconvergence point (dense index), -1 = none *)
}

type fctx = {
  fn : func;
  dblocks : dblock array;  (** index 0 is the entry block *)
  nslots : int;  (** register-file height: one slot per instruction *)
  max_phis : int;
  shared_size : int;
  sites : string array;
      (** static access-site ids, indexed by [d_site]: "<block>#<k>"
          with [k] the instruction's index among the block's non-phi
          instructions — stable across runs like branch ids *)
}

let prepare (cfg : config) (fn : func) : fctx =
  Verify.run_exn fn;
  let pdt = Darm_analysis.Domtree.compute_post fn in
  let blocks = Array.of_list fn.blocks_list in
  let nblocks = Array.length blocks in
  let bidx : (int, int) Hashtbl.t = Hashtbl.create (2 * nblocks) in
  Array.iteri (fun k b -> Hashtbl.replace bidx b.bid k) blocks;
  (* dense register slots: one per instruction *)
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let nslots = ref 0 in
  iter_instrs fn (fun i ->
      Hashtbl.replace slot_of i.id !nslots;
      incr nslots);
  (* shared-memory layout *)
  let shared_layout = Hashtbl.create 4 in
  let off = ref 0 in
  iter_instrs fn (fun i ->
      match i.op with
      | Op.Alloc_shared n ->
          Hashtbl.replace shared_layout i.id !off;
          off := !off + n
      | _ -> ());
  let dop_of (v : value) : dop =
    match v with
    | Int n -> Dconst (Rint (I32.to_i32 n))
    | Bool b -> Dconst (Rbool b)
    | Float x -> Dconst (Rfloat x)
    | Undef _ -> Dundef
    | Param p -> Dparam p.pindex
    | Instr i -> Dslot (Hashtbl.find slot_of i.id)
  in
  let sites_rev = ref [] in
  let nsites = ref 0 in
  let decode_instr ~(bname : string) ~(k : int) (i : instr) : dinstr =
    let d_mem, d_ptr =
      if Op.is_memory i.op then begin
        let pi = if i.op = Op.Store then 1 else 0 in
        ( (match value_ty i.operands.(pi) with
          | Types.Ptr Types.Global -> Mc_global
          | Types.Ptr Types.Shared -> Mc_shared
          | Types.Ptr Types.Flat -> Mc_flat
          | _ -> Mc_none),
          pi )
      end
      else (Mc_none, -1)
    in
    let d_site =
      if d_mem <> Mc_none then begin
        let s = !nsites in
        sites_rev := Printf.sprintf "%s#%d" bname k :: !sites_rev;
        incr nsites;
        s
      end
      else -1
    in
    {
      d_op = i.op;
      d_slot = Hashtbl.find slot_of i.id;
      d_lat = Darm_analysis.Latency.of_instr cfg.latency i;
      d_alu = Op.is_alu i.op;
      d_mem;
      d_ptr;
      d_site;
      d_ops = Array.map dop_of i.operands;
      d_succ = Array.map (fun b -> Hashtbl.find bidx b.bid) i.blocks;
      d_imm =
        (match i.op with
        | Op.Alloc_shared _ -> Hashtbl.find shared_layout i.id
        | _ -> 0);
      d_orig = i;
    }
  in
  let decode_block (b : block) : dblock =
    let db_phis =
      Array.of_list
        (List.map
           (fun p ->
             {
               p_slot = Hashtbl.find slot_of p.id;
               p_inc =
                 Array.map
                   (fun pred ->
                     match phi_incoming_for p pred with
                     | Some v -> dop_of v
                     | None -> Dmissing (b.bname, pred.bname))
                   blocks;
             })
           (phis b))
    in
    let db_code =
      Array.of_list
        (List.mapi
           (fun k i -> decode_instr ~bname:b.bname ~k i)
           (non_phis b))
    in
    let db_ipdom =
      match Darm_analysis.Domtree.idom pdt b with
      | Some r -> Hashtbl.find bidx r.bid
      | None -> -1
    in
    { db_name = b.bname; db_phis; db_code; db_ipdom }
  in
  let dblocks = Array.map decode_block blocks in
  let max_phis =
    Array.fold_left
      (fun acc db -> max acc (Array.length db.db_phis))
      0 dblocks
  in
  {
    fn;
    dblocks;
    nslots = !nslots;
    max_phis;
    shared_size = !off;
    sites = Array.of_list (List.rev !sites_rev);
  }

(* ------------------------------------------------------------------ *)
(* Warp state *)

(** One SIMT-stack entry. *)
type frame = {
  mutable pc : int;  (** dense block index *)
  mutable ip : int;  (** index of the next instruction in [db_code] *)
  rpc : int;  (** pop when [pc] reaches this block; -1 = never *)
  mask : bool array;
  origin : int;
      (** dense index of the divergent branch block that pushed this
          frame; -1 for uniform control flow.  Issue cycles under the
          frame are attributed to this branch (innermost branch wins
          under nested divergence). *)
  f_lost : int;
      (** lanes of the split's parent mask left inactive while this
          frame runs — the other arm's lane count; 0 when uniform *)
}

type warp_status = Running | At_barrier | Finished

type warp = {
  tid_base : int;  (** thread index (within block) of lane 0 *)
  regs : rv array array;  (** flat register file: [slot].[lane] *)
  pred : int array;  (** per-lane predecessor block (dense), -1 = none *)
  mutable stack : frame list;  (** [Stack] only *)
  mutable status : warp_status;
  mutable left : int;
      (** [Stack] only: the runaway guard, issues left before
          [Sim_error] for the warp's lifetime in its thread block.  Under
          [Its] each lane owns one ({!its_warp}). *)
}

(** Mutable state of the hierarchical memory model.  Reset at every
    thread-block boundary — blocks are scheduled independently, so
    neither cache contents nor in-flight requests survive a block
    swap. *)
type hier_state = {
  hp : hier_params;
  l1_tags : int array;
      (** resident segment per line, [set * ways + way]; -1 = invalid *)
  l1_lru : int array;  (** last-touch tick per line (LRU victim = min) *)
  mutable l1_tick : int;
  mshr_ready : int array;
      (** cycle at which each in-flight slot frees; clocked by
          [metrics.cycles] *)
}

let make_hier_state (hp : hier_params) : hier_state =
  {
    hp;
    l1_tags = Array.make (max 1 (hp.l1_sets * hp.l1_ways)) (-1);
    l1_lru = Array.make (max 1 (hp.l1_sets * hp.l1_ways)) 0;
    l1_tick = 0;
    mshr_ready = Array.make (max 1 hp.mshr) 0;
  }

let reset_hier_state (h : hier_state) : unit =
  Array.fill h.l1_tags 0 (Array.length h.l1_tags) (-1);
  Array.fill h.l1_lru 0 (Array.length h.l1_lru) 0;
  h.l1_tick <- 0;
  Array.fill h.mshr_ready 0 (Array.length h.mshr_ready) 0

type launch_ctx = {
  cfg : config;
  fctx : fctx;
  args : rv array;
  global : Memory.t;
  shared : Memory.t;
  block_idx : int;
  block_dim : int;
  grid_dim : int;
  metrics : Metrics.t;
  (* reusable scratch, private to this block's sequential warp loop *)
  seg_scratch : int array;  (** distinct global segments, [warp_size] *)
  bank_scratch : int array;  (** shared offsets of one 32-lane phase *)
  phi_stage : rv array array;  (** two-phase phi staging buffers *)
  taken : bool array;
      (** [Condbr] outcome per lane, valid for the issuing lanes *)
  (* per-branch divergence attribution, indexed by dense block index
     of the branch block; folded into [metrics.branches] (keyed by
     block name — the stable static branch id) at the end of the
     launch.  Shared across the whole grid like the scratch buffers. *)
  br_div : int array;  (** warp splits at this branch *)
  br_cycles : int array;  (** issue cycles inside the branch's arms *)
  br_lost : int array;  (** idle-lane cycles inside the arms *)
  br_reconv : int array;  (** arm completions at the IPDOM *)
  (* per-site memory attribution, indexed by [d_site]; folded into
     [metrics.mem_sites] (keyed by the stable "<block>#<k>" site id) at
     the end of the launch, mirroring the branch arrays above. *)
  ms_issues : int array;
  ms_accesses : int array;
  ms_transactions : int array;
  ms_l1_hits : int array;
  ms_l1_misses : int array;
  ms_bank_conflicts : int array;
  ms_bank_conflict_cycles : int array;
  ms_stall_cycles : int array;
  ms_cycles : int array;
  hier : hier_state option;  (** [Some] iff [cfg.mem_model] is [Hier] *)
}

(* ------------------------------------------------------------------ *)
(* Value evaluation *)

let eval_dop (ctx : launch_ctx) (w : warp) (lane : int) (d : dop) : rv =
  match d with
  | Dconst v -> v
  | Dslot s -> (Array.unsafe_get w.regs s).(lane)
  | Dparam k -> ctx.args.(k)
  | Dundef -> Rundef
  | Dmissing (bname, pname) ->
      errf "phi in %s has no incoming for pred %s" bname pname

let as_int (what : string) = function
  | Rint n -> n
  | Rbool true -> 1
  | Rbool false -> 0
  | Rundef -> errf "%s: use of undef integer" what
  | Rfloat _ | Rptr _ -> errf "%s: expected integer" what

let as_bool (what : string) = function
  | Rbool b -> b
  | Rint n -> n <> 0
  | Rundef -> errf "%s: use of undef condition" what
  | Rfloat _ | Rptr _ -> errf "%s: expected boolean" what

let as_float (what : string) = function
  | Rfloat x -> x
  | Rint n -> float_of_int n
  | Rundef -> errf "%s: use of undef float" what
  | Rbool _ | Rptr _ -> errf "%s: expected float" what

let as_ptr (what : string) = function
  | Rptr (s, o) -> (s, o)
  | Rundef -> errf "%s: dereference of undef pointer" what
  | Rint _ | Rbool _ | Rfloat _ -> errf "%s: expected pointer" what

let mem_for (ctx : launch_ctx) = function
  | Sp_global -> ctx.global
  | Sp_shared -> ctx.shared

(* ------------------------------------------------------------------ *)
(* Cost accounting *)

let popcount (mask : bool array) =
  let c = ref 0 in
  for k = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask k then incr c
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Structured observability.

   Timeline events are stamped with [metrics.cycles] — a deterministic
   function of the execution — so traces are byte-identical across
   runs and domain-pool sizes.  Per-warp events go on tid
   [1 + tid_base] (tid 0 carries the per-block cycle spans). *)

module Tr = Darm_obs.Trace

(* active mask as hex, lane 0 in the least-significant bit *)
let mask_hex (mask : bool array) : string =
  let ws = Array.length mask in
  let nibbles = (ws + 3) / 4 in
  let b = Bytes.create nibbles in
  for k = 0 to nibbles - 1 do
    let v = ref 0 in
    for j = 0 to 3 do
      let lane = ((nibbles - 1 - k) * 4) + j in
      if lane < ws && mask.(lane) then v := !v lor (1 lsl j)
    done;
    Bytes.set b k "0123456789abcdef".[!v]
  done;
  Bytes.to_string b

(* [args] is only built when a buffer is installed *)
let obs_warp (ctx : launch_ctx) (w : warp) (name : string)
    (args : unit -> (string * Tr.value) list) : unit =
  match ctx.cfg.obs with
  | None -> ()
  | Some tr ->
      Tr.instant tr ~cat:"sim" ~pid:ctx.cfg.obs_pid ~tid:(1 + w.tid_base)
        ~ts:ctx.metrics.Metrics.cycles ~args:(args ()) name

(* Charge one issue of [d] costing [lat] cycles for the lanes of [mask]
   inside an arm of the branch at block [origin] (-1 = uniform control
   flow), while [f_lost] lanes of the split idle. *)
let account (ctx : launch_ctx) (d : dinstr) ~(lat : int) ~(mask : bool array)
    ~(origin : int) ~(f_lost : int) : unit =
  let m = ctx.metrics in
  m.cycles <- m.cycles + lat;
  m.instructions <- m.instructions + 1;
  if origin >= 0 then begin
    (* divergence attribution: the split's other-arm lanes idle *)
    ctx.br_cycles.(origin) <- ctx.br_cycles.(origin) + lat;
    ctx.br_lost.(origin) <- ctx.br_lost.(origin) + (f_lost * lat);
    (* the global counter moves in lock-step with the per-branch one,
       so sum(br_lost_lane_cycles) = lost_lane_cycles exactly *)
    m.lost_lane_cycles <- m.lost_lane_cycles + (f_lost * lat)
  end;
  if d.d_alu then begin
    m.alu_issues <- m.alu_issues + 1;
    m.alu_active_lanes <- m.alu_active_lanes + popcount mask
  end;
  if d.d_site >= 0 then begin
    ctx.ms_issues.(d.d_site) <- ctx.ms_issues.(d.d_site) + 1;
    ctx.ms_cycles.(d.d_site) <- ctx.ms_cycles.(d.d_site) + lat;
    m.mem_cycles <- m.mem_cycles + lat
  end;
  match d.d_mem with
  | Mc_none -> ()
  | Mc_global -> m.mem_global <- m.mem_global + 1
  | Mc_shared -> m.mem_shared <- m.mem_shared + 1
  | Mc_flat -> m.mem_flat <- m.mem_flat + 1

(* Memory coalescing: a warp-wide global access is served in 32-cell
   transactions; the counter records how many distinct segments the
   lanes of [mask] touch (rocprof's memory-transaction counters), and
   [ctx.seg_scratch] holds those segments afterwards.  Shared accesses
   instead hit 32 word-interleaved banks; lanes touching different
   addresses in the same bank serialize (bank conflicts).  Both passes
   run over pre-allocated scratch arrays — no per-issue allocation.
   Returns whether any lane touched shared memory. *)
let coalesce (ctx : launch_ctx) (w : warp) (d : dinstr) (mask : bool array) :
    bool =
  let ptr = d.d_ops.(d.d_ptr) in
  let segs = ctx.seg_scratch in
  let nseg = ref 0 in
  let shared_seen = ref false in
  (* the 32 LDS banks serve the wavefront in 32-lane phases *)
  let phase = ref 0 in
  while !phase < ctx.cfg.warp_size do
    let bo = ctx.bank_scratch in
    let bn = ref 0 in
    for lane = !phase to min (ctx.cfg.warp_size - 1) (!phase + 31) do
      if mask.(lane) then
        match eval_dop ctx w lane ptr with
        | Rptr (Sp_global, off) ->
            let seg = off / 32 in
            let dup = ref false in
            for k = 0 to !nseg - 1 do
              if segs.(k) = seg then dup := true
            done;
            if not !dup then begin
              segs.(!nseg) <- seg;
              incr nseg
            end
        | Rptr (Sp_shared, off) ->
            shared_seen := true;
            bo.(!bn) <- off;
            incr bn
        | _ -> ()
    done;
    (* worst bank = max over banks of distinct offsets in that bank *)
    let worst = ref 0 in
    for b = 0 to 31 do
      let cnt = ref 0 in
      for i = 0 to !bn - 1 do
        if bo.(i) land 31 = b then begin
          let first = ref true in
          for j = 0 to i - 1 do
            if bo.(j) = bo.(i) then first := false
          done;
          if !first then incr cnt
        end
      done;
      if !cnt > !worst then worst := !cnt
    done;
    if !worst > 1 then begin
      ctx.metrics.bank_conflicts <- ctx.metrics.bank_conflicts + (!worst - 1);
      ctx.ms_bank_conflicts.(d.d_site) <-
        ctx.ms_bank_conflicts.(d.d_site) + (!worst - 1)
    end;
    phase := !phase + 32
  done;
  if !nseg > 0 then begin
    ctx.metrics.global_transactions <- ctx.metrics.global_transactions + !nseg;
    ctx.metrics.global_accesses <- ctx.metrics.global_accesses + 1;
    ctx.ms_transactions.(d.d_site) <- ctx.ms_transactions.(d.d_site) + !nseg;
    ctx.ms_accesses.(d.d_site) <- ctx.ms_accesses.(d.d_site) + 1
  end;
  !shared_seen

(* Hierarchical accounting for one memory issue, replacing the flat
   [d_lat] charge when [cfg.mem_model] is [Hier].  The coalescing/bank
   scan is the flat model's (those counters stay model-independent); on
   top of it the L1 probe decides the charged global latency, each
   coalesced segment beyond the first serializes at [txn_cycles], LDS
   conflict phases cost [lds_conflict_cycles] each, and a miss finding
   every MSHR slot busy stalls issue until the earliest in-flight
   request completes.  The charged issue latency is the slower of the
   global and LDS paths ([d_lat] when the access generated no traffic at
   all), plus any stall. *)
let account_mem_hier (ctx : launch_ctx) (w : warp) (d : dinstr)
    (h : hier_state) ~(mask : bool array) ~(origin : int) ~(f_lost : int) :
    unit =
  let m = ctx.metrics in
  let hp = h.hp in
  let segs = ctx.seg_scratch in
  (* the scan's segment and conflict-phase counts are the deltas of the
     counters it bumps *)
  let txns0 = m.global_transactions and conflicts0 = m.bank_conflicts in
  let shared_seen = coalesce ctx w d mask in
  let nseg = m.global_transactions - txns0 in
  let conflict_phases = m.bank_conflicts - conflicts0 in
  (* L1: one probe per coalesced segment; the access counts as a hit
     only when every segment is resident, so [l1_hits + l1_misses]
     counts accesses, not segments. *)
  let all_hit = ref true in
  for s = 0 to nseg - 1 do
    let seg = segs.(s) in
    let base = seg mod hp.l1_sets * hp.l1_ways in
    let way = ref (-1) in
    for wy = 0 to hp.l1_ways - 1 do
      if h.l1_tags.(base + wy) = seg then way := wy
    done;
    h.l1_tick <- h.l1_tick + 1;
    if !way >= 0 then h.l1_lru.(base + !way) <- h.l1_tick
    else begin
      all_hit := false;
      let victim = ref 0 in
      for wy = 1 to hp.l1_ways - 1 do
        if h.l1_lru.(base + wy) < h.l1_lru.(base + !victim) then
          victim := wy
      done;
      h.l1_tags.(base + !victim) <- seg;
      h.l1_lru.(base + !victim) <- h.l1_tick
    end
  done;
  let glat =
    if nseg = 0 then 0
    else
      (if !all_hit then hp.l1_hit_lat else hp.l1_miss_lat)
      + (hp.txn_cycles * (nseg - 1))
  in
  (* MSHR: a missing access occupies the earliest-free slot for its
     global latency; when no slot is free at issue, the warp stalls. *)
  let stall = ref 0 in
  if nseg > 0 && not !all_hit then begin
    let slot = ref 0 in
    for k = 1 to Array.length h.mshr_ready - 1 do
      if h.mshr_ready.(k) < h.mshr_ready.(!slot) then slot := k
    done;
    if h.mshr_ready.(!slot) > m.cycles then
      stall := h.mshr_ready.(!slot) - m.cycles;
    h.mshr_ready.(!slot) <- m.cycles + !stall + glat
  end;
  let bc_cycles = conflict_phases * hp.lds_conflict_cycles in
  let slat = (if shared_seen then d.d_lat else 0) + bc_cycles in
  let lat = max glat slat in
  let lat = if lat = 0 then d.d_lat else lat in
  account ctx d ~lat:(!stall + lat) ~mask ~origin ~f_lost;
  if !stall > 0 then begin
    m.mem_stall_cycles <- m.mem_stall_cycles + !stall;
    ctx.ms_stall_cycles.(d.d_site) <-
      ctx.ms_stall_cycles.(d.d_site) + !stall
  end;
  if bc_cycles > 0 then begin
    m.bank_conflict_cycles <- m.bank_conflict_cycles + bc_cycles;
    ctx.ms_bank_conflict_cycles.(d.d_site) <-
      ctx.ms_bank_conflict_cycles.(d.d_site) + bc_cycles
  end;
  if nseg > 0 then begin
    if !all_hit then begin
      m.l1_hits <- m.l1_hits + 1;
      ctx.ms_l1_hits.(d.d_site) <- ctx.ms_l1_hits.(d.d_site) + 1
    end
    else begin
      m.l1_misses <- m.l1_misses + 1;
      ctx.ms_l1_misses.(d.d_site) <- ctx.ms_l1_misses.(d.d_site) + 1
    end;
    match ctx.cfg.obs with
    | None -> ()
    | Some tr ->
        let inflight = ref 0 in
        for k = 0 to Array.length h.mshr_ready - 1 do
          if h.mshr_ready.(k) > m.cycles then incr inflight
        done;
        Tr.counter tr ~cat:"sim" ~pid:ctx.cfg.obs_pid ~tid:0 ~ts:m.cycles
          "mem.inflight"
          (float_of_int !inflight)
  end

(* ------------------------------------------------------------------ *)
(* Instruction execution *)

(** Execute all phis of the block simultaneously (two-phase read/commit)
    for the lanes of [mask], staging into the context's pre-allocated
    buffers. *)
let exec_phis (ctx : launch_ctx) (w : warp) (mask : bool array) (db : dblock)
    : unit =
  let nphis = Array.length db.db_phis in
  if nphis > 0 then begin
    let ws = ctx.cfg.warp_size in
    for pi = 0 to nphis - 1 do
      let p = db.db_phis.(pi) in
      let stage = ctx.phi_stage.(pi) in
      for lane = 0 to ws - 1 do
        if mask.(lane) then
          stage.(lane) <-
            (let pred = w.pred.(lane) in
             if pred < 0 then Rundef
             else eval_dop ctx w lane p.p_inc.(pred))
      done
    done;
    for pi = 0 to nphis - 1 do
      let p = db.db_phis.(pi) in
      let stage = ctx.phi_stage.(pi) in
      let file = w.regs.(p.p_slot) in
      for lane = 0 to ws - 1 do
        if mask.(lane) then file.(lane) <- stage.(lane)
      done
    done
  end

exception Poison

let set_pred_for_mask (w : warp) (mask : bool array) (bi : int) : unit =
  for lane = 0 to Array.length mask - 1 do
    if mask.(lane) then w.pred.(lane) <- bi
  done

(** What one issue did; each scheduler records it in its own state. *)
type outcome =
  | Next  (** fell through to the next instruction of the block *)
  | Jump of int  (** every issuing lane branched to this block *)
  | Split of {
      t_pc : int;
      f_pc : int;
      t_mask : bool array;
      f_mask : bool array;
      t_count : int;
      f_count : int;
      rpc : int;  (** reconvergence point (the IPDOM), -1 = none *)
    }  (** a conditional branch split the issuing lanes *)
  | Barrier  (** reached [syncthreads]; resume at the next instruction *)
  | Exit  (** [ret]: the issuing lanes are done *)

(** Evaluate a [Condbr] at block [pc] for the lanes of [mask], each
    lane's condition once (into [ctx.taken]). *)
let branch (ctx : launch_ctx) (w : warp) (d : dinstr) ~(mask : bool array)
    ~(pc : int) : outcome =
  let taken = ctx.taken in
  let cond = d.d_ops.(0) in
  let t_count = ref 0 and f_count = ref 0 in
  for lane = 0 to Array.length mask - 1 do
    if mask.(lane) then begin
      let t = as_bool "condbr" (eval_dop ctx w lane cond) in
      taken.(lane) <- t;
      if t then incr t_count else incr f_count
    end
  done;
  set_pred_for_mask w mask pc;
  if !f_count = 0 then Jump d.d_succ.(0)
  else if !t_count = 0 then Jump d.d_succ.(1)
  else begin
    ctx.metrics.divergent_branches <- ctx.metrics.divergent_branches + 1;
    ctx.br_div.(pc) <- ctx.br_div.(pc) + 1;
    let t_mask = Array.mapi (fun l m -> m && taken.(l)) mask in
    let f_mask = Array.mapi (fun l m -> m && not taken.(l)) mask in
    let dbs = ctx.fctx.dblocks in
    let rpc = dbs.(pc).db_ipdom in
    obs_warp ctx w "warp.diverge" (fun () ->
        [
          ("block", Tr.Str dbs.(pc).db_name);
          ("branch_id", Tr.Str dbs.(pc).db_name);
          ("t_active", Tr.Int !t_count);
          ("f_active", Tr.Int !f_count);
          ("t_mask", Tr.Str (mask_hex t_mask));
          ("f_mask", Tr.Str (mask_hex f_mask));
          ( "reconverge",
            Tr.Str (if rpc >= 0 then dbs.(rpc).db_name else "<none>") );
        ]);
    Split
      {
        t_pc = d.d_succ.(0);
        f_pc = d.d_succ.(1);
        t_mask;
        f_mask;
        t_count = !t_count;
        f_count = !f_count;
        rpc;
      }
  end

let fail_context (d : dinstr) (msg : string) =
  let i = d.d_orig in
  errf "%s (instr %d, op %s, block %s)" msg i.id (Op.to_string i.op)
    (match i.parent with Some b -> b.bname | None -> "?")

(* poisoning fetch of operand [k] for pure ALU operations *)
let opv (ctx : launch_ctx) (w : warp) (d : dinstr) (k : int) (lane : int) : rv
    =
  match eval_dop ctx w lane d.d_ops.(k) with Rundef -> raise Poison | v -> v

(* strict operand fetch for operations that must not see undef *)
let opv_strict (ctx : launch_ctx) (w : warp) (d : dinstr) (k : int)
    (lane : int) : rv =
  match eval_dop ctx w lane d.d_ops.(k) with
  | Rundef ->
      fail_context d (Printf.sprintf "operand %d is undef in lane %d" k lane)
  | v -> v

(* write [f lane] (undef when it poisons) to [d]'s register in every
   lane of [mask] *)
let per_lane (ctx : launch_ctx) (w : warp) (d : dinstr) (mask : bool array)
    (f : int -> rv) : outcome =
  let file = w.regs.(d.d_slot) in
  for lane = 0 to ctx.cfg.warp_size - 1 do
    if mask.(lane) then file.(lane) <- (try f lane with Poison -> Rundef)
  done;
  Next

(** Execute one non-phi instruction of block [pc] under the mask and
    account it, attributing its cycles to the split at [origin] whose
    [f_lost] other lanes idle meanwhile.

    Undef ({e poison}) semantics follow LLVM and real hardware: pure ALU
    operations on undef produce undef (melding executes gap instructions
    speculatively, and their discarded wrong-side results may depend on
    undef entry-phi values); dereferencing an undef pointer, dividing by
    an undef value or branching on an undef condition is a genuine
    error and traps. *)
let exec_instr (ctx : launch_ctx) (w : warp) (d : dinstr) ~(mask : bool array)
    ~(origin : int) ~(f_lost : int) ~(pc : int) : outcome =
  (match ctx.hier with
  | Some h when d.d_mem <> Mc_none ->
      account_mem_hier ctx w d h ~mask ~origin ~f_lost
  | _ ->
      account ctx d ~lat:d.d_lat ~mask ~origin ~f_lost;
      if d.d_mem <> Mc_none then ignore (coalesce ctx w d mask));
  match d.d_op with
  | Op.Ibin ((Op.Sdiv | Op.Srem) as op) ->
      per_lane ctx w d mask (fun l ->
          Rint
            (eval_ibin op
               (as_int "ibin" (opv_strict ctx w d 0 l))
               (as_int "ibin" (opv_strict ctx w d 1 l))))
  | Op.Ibin op ->
      per_lane ctx w d mask (fun l ->
          Rint
            (eval_ibin op
               (as_int "ibin" (opv ctx w d 0 l))
               (as_int "ibin" (opv ctx w d 1 l))))
  | Op.Fbin op ->
      per_lane ctx w d mask (fun l ->
          Rfloat
            (eval_fbin op
               (as_float "fbin" (opv ctx w d 0 l))
               (as_float "fbin" (opv ctx w d 1 l))))
  | Op.Icmp p ->
      per_lane ctx w d mask (fun l ->
          Rbool
            (eval_icmp p
               (as_int "icmp" (opv ctx w d 0 l))
               (as_int "icmp" (opv ctx w d 1 l))))
  | Op.Fcmp p ->
      per_lane ctx w d mask (fun l ->
          Rbool
            (eval_fcmp p
               (as_float "fcmp" (opv ctx w d 0 l))
               (as_float "fcmp" (opv ctx w d 1 l))))
  | Op.Not ->
      per_lane ctx w d mask (fun l ->
          Rbool (not (as_bool "not" (opv ctx w d 0 l))))
  | Op.Select ->
      per_lane ctx w d mask (fun l ->
          (* the not-taken arm may be undef without poisoning the result *)
          if as_bool "select" (opv ctx w d 0 l) then
            eval_dop ctx w l d.d_ops.(1)
          else eval_dop ctx w l d.d_ops.(2))
  | Op.Load ->
      per_lane ctx w d mask (fun l ->
          let sp, off = as_ptr "load" (opv_strict ctx w d 0 l) in
          Memory.read (mem_for ctx sp) off)
  | Op.Store ->
      for lane = 0 to ctx.cfg.warp_size - 1 do
        if mask.(lane) then begin
          let v = eval_dop ctx w lane d.d_ops.(0) in
          let sp, off = as_ptr "store" (opv_strict ctx w d 1 lane) in
          Memory.write (mem_for ctx sp) off v
        end
      done;
      Next
  | Op.Gep ->
      per_lane ctx w d mask (fun l ->
          let sp, off = as_ptr "gep" (opv ctx w d 0 l) in
          Rptr (sp, off + as_int "gep" (opv ctx w d 1 l)))
  | Op.Thread_idx -> per_lane ctx w d mask (fun l -> Rint (w.tid_base + l))
  | Op.Block_idx -> per_lane ctx w d mask (fun _ -> Rint ctx.block_idx)
  | Op.Block_dim -> per_lane ctx w d mask (fun _ -> Rint ctx.block_dim)
  | Op.Grid_dim -> per_lane ctx w d mask (fun _ -> Rint ctx.grid_dim)
  | Op.Alloc_shared _ ->
      per_lane ctx w d mask (fun _ -> Rptr (Sp_shared, d.d_imm))
  | Op.Sitofp ->
      per_lane ctx w d mask (fun l ->
          Rfloat (float_of_int (as_int "sitofp" (opv ctx w d 0 l))))
  | Op.Fptosi ->
      per_lane ctx w d mask (fun l ->
          Rint (int_of_float (as_float "fptosi" (opv ctx w d 0 l))))
  | Op.Addrspace_cast -> per_lane ctx w d mask (fun l -> opv ctx w d 0 l)
  | Op.Ret -> Exit
  | Op.Br ->
      set_pred_for_mask w mask pc;
      Jump d.d_succ.(0)
  | Op.Condbr -> branch ctx w d ~mask ~pc
  | Op.Syncthreads ->
      ctx.metrics.barriers <- ctx.metrics.barriers + 1;
      obs_warp ctx w "warp.barrier" (fun () ->
          [
            ("block", Tr.Str ctx.fctx.dblocks.(pc).db_name);
            ("active", Tr.Int (popcount mask));
          ]);
      Barrier
  | Op.Phi -> errf "exec_instr: phis run at block entry"

(* ------------------------------------------------------------------ *)
(* The issue core and its two schedulers *)

(** The issue step shared by both schedulers, which charge the runaway
    guard before calling it: execute the instruction at [(pc, ip)] for
    the lanes of [mask] — the block's phis first when [ip = 0] — and
    account it (see {!exec_instr}). *)
let issue (ctx : launch_ctx) (w : warp) ~(mask : bool array) ~(origin : int)
    ~(f_lost : int) ~(pc : int) ~(ip : int) : outcome =
  let db = ctx.fctx.dblocks.(pc) in
  if ip >= Array.length db.db_code then
    errf "block %s has no terminator" db.db_name;
  if ip = 0 then exec_phis ctx w mask db;
  exec_instr ctx w (Array.unsafe_get db.db_code ip) ~mask ~origin ~f_lost ~pc

(** Count a reconvergence of the split at branch block [origin], joining
    at block [at], and put it on the timeline with the [joined] lanes. *)
let reconverged (ctx : launch_ctx) (w : warp) ~(origin : int) ~(at : int)
    (joined : unit -> bool array) : unit =
  ctx.metrics.reconvergences <- ctx.metrics.reconvergences + 1;
  ctx.br_reconv.(origin) <- ctx.br_reconv.(origin) + 1;
  obs_warp ctx w "warp.reconverge" (fun () ->
      let mask = joined () in
      let dbs = ctx.fctx.dblocks in
      [
        ("block", Tr.Str dbs.(at).db_name);
        ("branch_id", Tr.Str dbs.(origin).db_name);
        ("active", Tr.Int (popcount mask));
        ("mask", Tr.Str (mask_hex mask));
      ])

(** SIMT-stack scheduler: issue for the top frame; a split pushes one
    frame per arm, and an arm's frame pops when its pc reaches the
    reconvergence point, where the parent resumes.  Runs the warp until
    it finishes or reaches a barrier. *)
let run_warp (ctx : launch_ctx) (w : warp) : unit =
  let running = ref true in
  while !running do
    match w.stack with
    | [] ->
        w.status <- Finished;
        running := false
    | frame :: rest when frame.rpc = frame.pc ->
        (* reconverged: drop the frame, the parent resumes at rpc *)
        reconverged ctx w ~origin:frame.origin ~at:frame.pc (fun () ->
            frame.mask);
        w.stack <- rest
    | frame :: rest -> (
        if w.left <= 0 then errf "cycle budget exhausted (runaway loop?)";
        w.left <- w.left - 1;
        let pc = frame.pc in
        match
          issue ctx w ~mask:frame.mask ~origin:frame.origin
            ~f_lost:frame.f_lost ~pc ~ip:frame.ip
        with
        | Next -> frame.ip <- frame.ip + 1
        | Jump b ->
            frame.pc <- b;
            frame.ip <- 0
        | Split { t_pc; f_pc; t_mask; f_mask; t_count; f_count; rpc } ->
            let arm a_pc mask f_lost =
              { pc = a_pc; ip = 0; rpc; mask; origin = pc; f_lost }
            in
            let t = arm t_pc t_mask f_count and f = arm f_pc f_mask t_count in
            if rpc >= 0 then begin
              frame.pc <- rpc;
              frame.ip <- 0;
              w.stack <- t :: f :: w.stack
            end
            else
              (* no reconvergence point: both arms run to completion *)
              w.stack <- t :: f :: rest
        | Barrier -> (
            match rest with
            | _ :: _ -> errf "syncthreads in divergent control flow"
            | [] ->
                frame.ip <- frame.ip + 1;
                w.status <- At_barrier;
                running := false)
        | Exit -> w.stack <- rest)
  done

(* ------------------------------------------------------------------ *)
(* Independent thread scheduling (ITS).

   Every lane carries its own PC, instruction index and run state; the
   warp scheduler repeatedly picks the runnable group of lanes sharing
   the lexicographically minimal (pc, ip) — MinPC — and issues one
   instruction for that group through the same {!issue} core as the
   stack scheduler.  Lanes reconverge opportunistically when their PCs
   coincide, and a lane reaching a split's reconvergence point parks
   until its sibling lanes arrive (the convergence-optimizer barrier),
   which restores maximal convergence on structured code.  Liveness is
   unconditional: whenever no lane of the warp is runnable, every
   parked lane is released, so siblings stuck at a [syncthreads] or
   exited via [ret] can never wedge the warp — [syncthreads] stays
   deadlock-free under divergence, where the SIMT stack model must
   reject it.

   Divergence attribution follows the stack model's innermost-frame
   rule: an issue is attributed to the group leader's innermost open
   split, and its lost lanes are the warp's other non-retired lanes, so
   the per-branch and global lost-lane counters close exactly under
   both models. *)

type lane_status =
  | L_run
  | L_wait  (** parked at a reconvergence point for sibling lanes *)
  | L_barrier  (** parked at [syncthreads] *)
  | L_done

(** Per-lane scheduling state of one warp under ITS, all of it in arrays
    of immediates allocated with the warp: no records or lists per issue
    or per split.  An open split is named by its branch block (its
    origin) alone: its reconvergence point is always that block's
    [db_ipdom]. *)
type its_warp = {
  iw_pc : int array;  (** per-lane dense block index *)
  iw_ip : int array;  (** per-lane index into [db_code] *)
  iw_stat : lane_status array;
  iw_div : int array array;
      (** per lane, the origins of its open splits, innermost at
          [iw_depth.(l) - 1]; grown by doubling.  An origin can repeat:
          a divergent loop latch re-splits every iteration before its
          lanes reach the reconvergence point, and each copy pops (and
          may count a reconvergence) on its own. *)
  iw_depth : int array;
  iw_wait : int array;  (** origin an [L_wait] lane is parked on, else -1 *)
  iw_open : int array;
      (** per branch block: how many entries with that origin the
          non-retired lanes hold, so "does any other lane still hold
          this split" is one subtraction *)
  iw_left : int array;  (** per-lane runaway-guard budget *)
  iw_group : bool array;  (** lane mask of the issuing group *)
}

let make_its_warp (cfg : config) ~(nblocks : int) ~(live : int) : its_warp =
  let ws = cfg.warp_size in
  {
    iw_pc = Array.make ws 0;
    iw_ip = Array.make ws 0;
    iw_stat = Array.init ws (fun l -> if l < live then L_run else L_done);
    iw_div = Array.make ws [||];
    iw_depth = Array.make ws 0;
    iw_wait = Array.make ws (-1);
    iw_open = Array.make nblocks 0;
    iw_left = Array.make ws cfg.max_cycles_per_warp;
    iw_group = Array.make ws false;
  }

(* innermost open split of [lane], -1 when it has none *)
let its_top (iw : its_warp) (lane : int) : int =
  let d = iw.iw_depth.(lane) in
  if d = 0 then -1 else iw.iw_div.(lane).(d - 1)

let its_push (iw : its_warp) (lane : int) (origin : int) : unit =
  let d = iw.iw_depth.(lane) in
  if d = Array.length iw.iw_div.(lane) then begin
    let grown = Array.make (max 4 (2 * d)) 0 in
    Array.blit iw.iw_div.(lane) 0 grown 0 d;
    iw.iw_div.(lane) <- grown
  end;
  iw.iw_div.(lane).(d) <- origin;
  iw.iw_depth.(lane) <- d + 1;
  iw.iw_open.(origin) <- iw.iw_open.(origin) + 1

(* [lane] executed [ret]: it holds no split any more *)
let its_retire (iw : its_warp) (lane : int) : unit =
  let s = iw.iw_div.(lane) in
  for k = 0 to iw.iw_depth.(lane) - 1 do
    iw.iw_open.(s.(k)) <- iw.iw_open.(s.(k)) - 1
  done;
  iw.iw_depth.(lane) <- 0;
  iw.iw_stat.(lane) <- L_done

(* the first lane of [group] whose budget [charged] more issues exhaust *)
let its_trip (w : warp) (iw : its_warp) ~(charged : int) : 'a =
  let l = ref 0 in
  while not (iw.iw_group.(!l) && iw.iw_left.(!l) - charged <= 0) do
    incr l
  done;
  errf "cycle budget exhausted in lane %d (runaway loop?)" (w.tid_base + !l)

(** MinPC scheduler: issue for the runnable lane group at the minimal
    (pc, ip); a split opens a per-lane entry that pops at the
    reconvergence point.  Runs the warp until every lane is retired or
    parked at a barrier.

    A group keeps issuing without a rescan while it provably stays the
    MinPC group: after a fall-through, or after a jump none of its lanes
    pops at, whenever its new (pc, ip) is still below that of every
    other runnable lane.  Its runaway guard is charged once per issue
    against the group's smallest budget and written back per lane when
    the group breaks up, which trips at the same issue and lane as
    charging every lane every issue. *)
let run_warp_its (ctx : launch_ctx) (w : warp) (iw : its_warp) : unit =
  let ws = ctx.cfg.warp_size in
  let dbs = ctx.fctx.dblocks in
  let gmask = iw.iw_group in
  (* set when a wake may have released a lane the pop scan had already
     passed: its pops wait for the next scan, so the group must not
     keep issuing past it *)
  let woke = ref false in
  (* wake every lane parked on split [o] — it has fully drained (or the
     warp would otherwise stall) *)
  let wake o =
    for l = 0 to ws - 1 do
      if iw.iw_stat.(l) = L_wait && iw.iw_wait.(l) = o then begin
        iw.iw_stat.(l) <- L_run;
        iw.iw_wait.(l) <- -1;
        woke := true
      end
    done
  in
  (* at a block entry, pop every open split whose reconvergence point
     is this block, parking for straggling siblings *)
  let process_pops lane =
    let continue_ = ref true in
    while !continue_ && iw.iw_stat.(lane) = L_run do
      let o = its_top iw lane and r = iw.iw_pc.(lane) in
      if o >= 0 && dbs.(o).db_ipdom = r then begin
        let d = iw.iw_depth.(lane) - 1 in
        iw.iw_depth.(lane) <- d;
        iw.iw_open.(o) <- iw.iw_open.(o) - 1;
        let own = ref 0 in
        for k = 0 to d - 1 do
          if iw.iw_div.(lane).(k) = o then incr own
        done;
        if iw.iw_open.(o) = !own then begin
          (* no other live lane holds the split: this is the
             reconvergence *)
          reconverged ctx w ~origin:o ~at:r (fun () ->
              Array.init ws (fun l ->
                  iw.iw_stat.(l) <> L_done && iw.iw_pc.(l) = r));
          wake o
        end
        else begin
          iw.iw_stat.(lane) <- L_wait;
          iw.iw_wait.(lane) <- o
        end
      end
      else continue_ := false
    done
  in
  (* does a lane of the group, whose innermost splits are all [ghead]
     (-2 when they differ), pop on entering block [b]? *)
  let group_pops ghead b =
    if ghead >= 0 then dbs.(ghead).db_ipdom = b
    else if ghead = -1 then false
    else begin
      let pops = ref false in
      for l = 0 to ws - 1 do
        if gmask.(l) then
          let o = its_top iw l in
          if o >= 0 && dbs.(o).db_ipdom = b then pops := true
      done;
      !pops
    end
  in
  let running = ref true in
  while !running do
    woke := false;
    (* reconvergence pops happen at block entry, before any issue (also
       covers lanes re-checked after a wake) *)
    for l = 0 to ws - 1 do
      if iw.iw_stat.(l) = L_run && iw.iw_ip.(l) = 0 then process_pops l
    done;
    (* MinPC: the first runnable lane with the minimal (pc, ip) leads *)
    let leader = ref (-1) and alive = ref 0 and parked = ref 0 in
    for l = 0 to ws - 1 do
      match iw.iw_stat.(l) with
      | L_run ->
          incr alive;
          if
            !leader < 0
            || iw.iw_pc.(l) < iw.iw_pc.(!leader)
            || (iw.iw_pc.(l) = iw.iw_pc.(!leader)
               && iw.iw_ip.(l) < iw.iw_ip.(!leader))
          then leader := l
      | L_wait ->
          incr alive;
          incr parked
      | L_barrier | L_done -> ()
    done;
    if !leader < 0 then begin
      if !parked > 0 then
        (* liveness backstop: no runnable lane — release every parked
           lane (its sibling lanes are at a barrier, retired, or parked
           themselves; the reconvergence-point wait must yield) *)
        for l = 0 to ws - 1 do
          if iw.iw_stat.(l) = L_wait then begin
            iw.iw_stat.(l) <- L_run;
            iw.iw_wait.(l) <- -1
          end
        done
      else running := false
    end
    else begin
      let pc = ref iw.iw_pc.(!leader) and ip = ref iw.iw_ip.(!leader) in
      (* the group; the least (pc, ip) of the runnable lanes outside it;
         the group's smallest budget; its lanes' common innermost split *)
      let gsize = ref 0 and o_pc = ref max_int and o_ip = ref max_int in
      let gleft = ref max_int and ghead = ref (-1) in
      for l = 0 to ws - 1 do
        gmask.(l) <- false;
        if iw.iw_stat.(l) = L_run then
          if iw.iw_pc.(l) = !pc && iw.iw_ip.(l) = !ip then begin
            gmask.(l) <- true;
            incr gsize;
            if iw.iw_left.(l) < !gleft then gleft := iw.iw_left.(l);
            let t = its_top iw l in
            if !gsize = 1 then ghead := t else if t <> !ghead then ghead := -2
          end
          else if
            iw.iw_pc.(l) < !o_pc
            || (iw.iw_pc.(l) = !o_pc && iw.iw_ip.(l) < !o_ip)
          then begin
            o_pc := iw.iw_pc.(l);
            o_ip := iw.iw_ip.(l)
          end
      done;
      (* attribution: the group leader's innermost open split; the
         split's cost in idle lanes is every live lane the group leaves
         behind *)
      let origin = its_top iw !leader and f_lost = !alive - !gsize in
      let o_pc = !o_pc and o_ip = !o_ip in
      let charged = ref 0 and last = ref Next and issuing = ref true in
      while !issuing do
        if !gleft - !charged <= 0 then its_trip w iw ~charged:!charged;
        incr charged;
        let outcome = issue ctx w ~mask:gmask ~origin ~f_lost ~pc:!pc ~ip:!ip in
        last := outcome;
        (* still the MinPC group at its new (pc, ip)? *)
        let stays =
          match outcome with
          | Next ->
              ip := !ip + 1;
              !pc < o_pc || (!pc = o_pc && !ip < o_ip)
          | Jump b ->
              pc := b;
              ip := 0;
              (b < o_pc || (b = o_pc && 0 < o_ip))
              && not (group_pops !ghead b)
          | Split _ | Barrier | Exit -> false
        in
        issuing := stays && not !woke
      done;
      for l = 0 to ws - 1 do
        if gmask.(l) then begin
          iw.iw_left.(l) <- iw.iw_left.(l) - !charged;
          match !last with
          | Next | Jump _ ->
              iw.iw_pc.(l) <- !pc;
              iw.iw_ip.(l) <- !ip
          | Split { t_pc; f_pc; t_mask; _ } ->
              (* lanes rejoin at the IPDOM, or opportunistically earlier
                 when their PCs coincide *)
              its_push iw l !pc;
              iw.iw_pc.(l) <- (if t_mask.(l) then t_pc else f_pc);
              iw.iw_ip.(l) <- 0
          | Barrier ->
              iw.iw_stat.(l) <- L_barrier;
              iw.iw_pc.(l) <- !pc;
              iw.iw_ip.(l) <- !ip + 1
          | Exit -> its_retire iw l
        end
      done
    end
  done;
  w.status <-
    (if Array.for_all (fun s -> s = L_done) iw.iw_stat then Finished
     else At_barrier)

(* ------------------------------------------------------------------ *)
(* Grid launch *)

type launch = { grid_dim : int; block_dim : int }

(** [run ?config fn ~args ~global launch] executes the kernel over the
    whole grid and returns the collected metrics.  [args] bind the
    function parameters positionally. *)
let run ?(config = default_config) (fn : func) ~(args : rv array)
    ~(global : Memory.t) (launch : launch) : Metrics.t =
  if List.length fn.params <> Array.length args then
    errf "kernel @%s expects %d arguments, got %d" fn.fname
      (List.length fn.params) (Array.length args);
  let fctx = prepare config fn in
  let metrics = Metrics.create () in
  let ws = config.warp_size in
  (* scratch buffers live across the whole grid: blocks (and the warps
     within a block) execute sequentially on this domain *)
  let seg_scratch = Array.make ws 0 in
  let bank_scratch = Array.make 32 0 in
  let phi_stage =
    Array.init (max fctx.max_phis 1) (fun _ -> Array.make ws Rundef)
  in
  let taken = Array.make ws false in
  let nblocks = Array.length fctx.dblocks in
  let br_div = Array.make nblocks 0 in
  let br_cycles = Array.make nblocks 0 in
  let br_lost = Array.make nblocks 0 in
  let br_reconv = Array.make nblocks 0 in
  let nsites = Array.length fctx.sites in
  let msa () = Array.make (max 1 nsites) 0 in
  let ms_issues = msa () in
  let ms_accesses = msa () in
  let ms_transactions = msa () in
  let ms_l1_hits = msa () in
  let ms_l1_misses = msa () in
  let ms_bank_conflicts = msa () in
  let ms_bank_conflict_cycles = msa () in
  let ms_stall_cycles = msa () in
  let ms_cycles = msa () in
  let hier =
    match config.mem_model with
    | Flat -> None
    | Hier hp -> Some (make_hier_state hp)
  in
  for block_idx = 0 to launch.grid_dim - 1 do
    let cycles_before = metrics.cycles in
    (match hier with
    | Some h -> reset_hier_state h
    | None -> ());
    (match config.obs with
    | None -> ()
    | Some tr ->
        Tr.begin_span tr ~cat:"sim" ~pid:config.obs_pid ~tid:0
          ~ts:metrics.cycles
          ~args:[ ("block_idx", Tr.Int block_idx) ]
          "block");
    let shared =
      Memory.create ~space:Sp_shared (max fctx.shared_size 1)
    in
    let ctx =
      {
        cfg = config;
        fctx;
        args;
        global;
        shared;
        block_idx;
        block_dim = launch.block_dim;
        grid_dim = launch.grid_dim;
        metrics;
        seg_scratch;
        bank_scratch;
        phi_stage;
        taken;
        br_div;
        br_cycles;
        br_lost;
        br_reconv;
        ms_issues;
        ms_accesses;
        ms_transactions;
        ms_l1_hits;
        ms_l1_misses;
        ms_bank_conflicts;
        ms_bank_conflict_cycles;
        ms_stall_cycles;
        ms_cycles;
        hier;
      }
    in
    let nwarps = (launch.block_dim + ws - 1) / ws in
    let live wi = min ws (launch.block_dim - (wi * ws)) in
    let budget = config.max_cycles_per_warp in
    let warps =
      Array.init nwarps (fun wi ->
          let mask = Array.init ws (fun l -> l < live wi) in
          {
            tid_base = wi * ws;
            regs = Array.init fctx.nslots (fun _ -> Array.make ws Rundef);
            pred = Array.make ws (-1);
            stack =
              [ { pc = 0; ip = 0; rpc = -1; mask; origin = -1; f_lost = 0 } ];
            status = Running;
            left = budget;
          })
    in
    (* per-lane scheduling state, allocated only under ITS *)
    let its_warps =
      match config.reconvergence with
      | Stack -> [||]
      | Its () ->
          Array.init nwarps (fun wi ->
              make_its_warp config ~nblocks ~live:(live wi))
    in
    (* phase execution: run every warp to its next barrier or the end;
       release the barrier when all non-finished warps have reached it *)
    let all_done () =
      Array.for_all (fun w -> w.status = Finished) warps
    in
    let guard = ref 0 in
    while not (all_done ()) do
      incr guard;
      if !guard > 1_000_000 then errf "barrier deadlock";
      Array.iteri
        (fun wi w ->
          if w.status = Running then
            match config.reconvergence with
            | Stack -> run_warp ctx w
            | Its () -> run_warp_its ctx w its_warps.(wi))
        warps;
      (* all running warps have now either finished or hit a barrier *)
      let at_barrier =
        Array.exists (fun w -> w.status = At_barrier) warps
      in
      if at_barrier then
        Array.iteri
          (fun wi w ->
            if w.status = At_barrier then begin
              w.status <- Running;
              match config.reconvergence with
              | Stack -> ()
              | Its () ->
                  let iw = its_warps.(wi) in
                  for l = 0 to ws - 1 do
                    if iw.iw_stat.(l) = L_barrier then
                      iw.iw_stat.(l) <- L_run
                  done
            end)
          warps
    done;
    (* CONTRACT: block_cycles is kept most-recent-block-first; see
       {!Metrics.t} *)
    metrics.block_cycles <-
      (metrics.cycles - cycles_before) :: metrics.block_cycles;
    match config.obs with
    | None -> ()
    | Some tr ->
        Tr.end_span tr ~cat:"sim" ~pid:config.obs_pid ~tid:0 ~ts:metrics.cycles
          "block";
        Tr.counter tr ~cat:"sim" ~pid:config.obs_pid ~tid:0 ~ts:metrics.cycles
          "block.cycles"
          (float_of_int (metrics.cycles - cycles_before));
        (* cumulative L1 hit rate, one sample per block boundary *)
        if hier <> None then
          Tr.counter tr ~cat:"sim" ~pid:config.obs_pid ~tid:0
            ~ts:metrics.cycles "mem.l1_hit_rate"
            (Metrics.l1_hit_rate metrics)
  done;
  (* fold the dense attribution arrays into the metrics, keyed by the
     stable static branch id (the branch block's name) *)
  for bi = 0 to nblocks - 1 do
    if br_div.(bi) > 0 || br_cycles.(bi) > 0 || br_reconv.(bi) > 0 then begin
      let s = Metrics.touch_branch metrics fctx.dblocks.(bi).db_name in
      s.Metrics.br_divergences <- s.Metrics.br_divergences + br_div.(bi);
      s.Metrics.br_cycles <- s.Metrics.br_cycles + br_cycles.(bi);
      s.Metrics.br_lost_lane_cycles <-
        s.Metrics.br_lost_lane_cycles + br_lost.(bi);
      s.Metrics.br_reconvergences <-
        s.Metrics.br_reconvergences + br_reconv.(bi)
    end
  done;
  (* likewise for the per-site memory attribution, keyed by the stable
     "<block>#<k>" access-site id *)
  for si = 0 to nsites - 1 do
    if ms_issues.(si) > 0 then begin
      let s = Metrics.touch_site metrics fctx.sites.(si) in
      s.Metrics.ms_issues <- s.Metrics.ms_issues + ms_issues.(si);
      s.Metrics.ms_accesses <- s.Metrics.ms_accesses + ms_accesses.(si);
      s.Metrics.ms_transactions <-
        s.Metrics.ms_transactions + ms_transactions.(si);
      s.Metrics.ms_l1_hits <- s.Metrics.ms_l1_hits + ms_l1_hits.(si);
      s.Metrics.ms_l1_misses <- s.Metrics.ms_l1_misses + ms_l1_misses.(si);
      s.Metrics.ms_bank_conflicts <-
        s.Metrics.ms_bank_conflicts + ms_bank_conflicts.(si);
      s.Metrics.ms_bank_conflict_cycles <-
        s.Metrics.ms_bank_conflict_cycles + ms_bank_conflict_cycles.(si);
      s.Metrics.ms_stall_cycles <-
        s.Metrics.ms_stall_cycles + ms_stall_cycles.(si);
      s.Metrics.ms_cycles <- s.Metrics.ms_cycles + ms_cycles.(si)
    end
  done;
  metrics
