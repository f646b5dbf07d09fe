(* Reference min-cost max-flow: successive shortest paths found by SPFA
   (queue-based Bellman-Ford) on the raw residual costs — no potentials,
   no reduced costs, no early exit, no reused scratch.  Structurally
   independent from [Ltc_flow.Mcmf], which makes it the oracle the SSPA
   solver is cross-checked against.  Slow by design: it owns its arrays
   and reallocates them every pass. *)

open Ltc_flow

let epsilon = 1e-9

(* Cheapest paths from [source] over arcs with residual capacity: the
   distance and predecessor arc (-1 = unreached) of every node.  A node
   re-queued more than n times witnesses a negative cycle. *)
let shortest_paths g ~source =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let queued = Array.make n false in
  let relaxed = Array.make n 0 in
  let queue = Queue.create () in
  dist.(source) <- 0.0;
  Queue.push source queue;
  queued.(source) <- true;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    queued.(u) <- false;
    Graph.iter_arcs_from g u (fun a ->
        if Graph.residual g a > 0 then begin
          let v = Graph.dst g a in
          let d = dist.(u) +. Graph.cost g a in
          if d < dist.(v) -. epsilon then begin
            dist.(v) <- d;
            pred.(v) <- a;
            if not queued.(v) then begin
              relaxed.(v) <- relaxed.(v) + 1;
              if relaxed.(v) > n then
                invalid_arg "Spfa_oracle: negative-cost cycle in input";
              Queue.push v queue;
              queued.(v) <- true
            end
          end
        end)
  done;
  (dist, pred)

(* Augment along cheapest paths until the sink is unreachable, returning
   the result in {!Mcmf.run}'s shape so the two compare field by field. *)
let run g ~source ~sink =
  let rec loop flow cost rounds =
    let dist, pred = shortest_paths g ~source in
    if pred.(sink) = -1 then
      { Mcmf.flow; cost; rounds; exhausted = false }
    else begin
      let rec path v acc =
        if v = source then acc else path (Graph.src g pred.(v)) (pred.(v) :: acc)
      in
      let arcs = path sink [] in
      let amount =
        List.fold_left (fun m a -> min m (Graph.residual g a)) max_int arcs
      in
      List.iter (fun a -> Graph.push g a amount) arcs;
      loop (flow + amount)
        (cost +. (float_of_int amount *. dist.(sink)))
        (rounds + 1)
    end
  in
  loop 0 0.0 0
