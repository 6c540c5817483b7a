(* Validator-as-oracle regression tests.

   Every scheduler is run over a bank of random TGFF graphs; for each run
   we assert (a) structural feasibility — the independent validator finds
   no violation besides deadline misses, which the baselines are allowed
   to incur — and (b) energy, miss-count and schedule-digest invariance
   against a golden table recorded from the reference implementation.
   Energy depends only on the task-to-PE assignment (Eq. 3), so a shifted
   placement decision flips a golden energy by a whole reassignment; the
   FNV-1a digest of the serialised schedule additionally pins every start
   time, finish time, route and link window bit-for-bit, so a change that
   keeps the assignment but moves a slot fails loudly here too.

   Regenerate the table with:
     ORACLE_REGEN=1 dune exec test/test_main.exe -- test oracle 2>/dev/null *)

module Validate = Noc_sched.Validate
module Metrics = Noc_sched.Metrics

let platform = Noc_noc.Platform.heterogeneous_mesh ~seed:3 ~cols:3 ~rows:3 ()

let params =
  { Noc_tgff.Params.default with n_tasks = 24; max_layer_width = 5 }

let n_seeds = 50

let schedulers =
  [
    ("EAS", fun ctg -> (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule);
    ("EDF", fun ctg -> Noc_edf.Edf.schedule platform ctg);
    ("DLS", fun ctg ->
      Noc_baselines.Dls.schedule platform ctg);
    ("energy-greedy", fun ctg ->
      Noc_baselines.Energy_greedy.schedule platform ctg);
  ]

let ctg_of_seed seed = Noc_tgff.Generate.generate ~params ~platform ~seed

let run_one scheduler ctg =
  let schedule = scheduler ctg in
  let metrics = Metrics.compute platform ctg schedule in
  let structural =
    List.filter
      (function Validate.Deadline_miss _ -> false | _ -> true)
      (Validate.check platform ctg schedule)
  in
  ( metrics.Metrics.total_energy,
    Metrics.miss_count metrics,
    Noc_util.Fnv.digest (Noc_sched.Schedule_io.to_string schedule),
    structural )

(* One line per seed: seed then (energy, misses, schedule digest) per
   scheduler in the order of [schedulers]. Energies and misses were
   recorded from the seed list-based Timeline and are required to survive
   every substrate swap since; the digests were added later, before the
   list schedulers were ported onto one commit path. *)
let golden_table = {golden|
0 4859.0408 0 9b273d4ac161d0f0 7704.4429 0 351416b4a08959a0 7302.8296 0 b554d805427b985c 2834.8414 6 adf1dc271e2acbfc
1 4396.6967 0 4ce35ede53ae22d9 5943.8451 0 aaa6c58045f06461 6214.5934 0 11d2677029c62644 1767.6972 6 34d02befeef7dac4
2 4393.9249 0 196d297b219f54d2 5984.3301 0 85f7e98b4bf853d2 6117.8500 0 1fecccd301759126 2256.0292 7 dfe07695f108619c
3 4749.0564 0 3f83bdf2d7971ed2 5835.0638 0 c8acbb081be901d4 6110.9848 0 9ddf008d874b5b16 3107.9713 5 be6bd1582f0e840f
4 7178.8580 0 373bb57402ab145d 9636.5582 0 05e2b0ffda99d6ac 9557.0821 0 cda959dc96bac0d8 4396.0994 6 1997d0747cdd64dc
5 4878.7381 0 7221cf23cf0f60e5 6730.3408 0 b52659dd688be38e 6848.6159 0 6635a0ec26cf7ea0 3025.6941 5 bd6fd96fecdb0640
6 3498.6835 0 f7333d690182d2b2 5842.0516 0 a013caede7e826dd 5713.8070 0 63ea7b58915ad810 2522.1699 7 ffe13dc77191fffc
7 7578.9670 0 eea89e2d4bbd87cc 11107.2635 0 f8e64de0ee6c9655 10354.7569 0 1dcadf3c6bafc2f6 3508.6372 5 b76ddf3ebe61d485
8 3840.6774 0 003b19def825d516 5866.2560 0 a3b3ff5c7b3cfb1a 5383.6242 0 b9da3a5862fd11b9 2759.3345 8 b1719aa3542294b2
9 6845.8970 0 f906219763a5497c 9250.5087 0 c46331d77642e536 9265.5241 0 728f6d051f9d4226 3007.7259 5 54d1735df1374942
10 3695.6846 0 edfd97ed2f862e2e 5225.6444 0 5fb514c8158a3929 6046.8550 0 9009b8dc5a54d01b 2681.4234 5 21465558e2787f0c
11 5953.7306 0 372e08753df180ec 8139.3268 0 3e8546ea1c35f177 7633.3911 0 590b38a3d6fe895a 4566.0650 6 363aca8476bed4bc
12 4439.9349 0 4cc18fcbcd6baa96 5657.6992 0 0dd35825de106ed5 6098.8325 0 a8913bce0dcef85b 3049.1614 6 64e0d204a9acc60c
13 6819.6015 0 93f4f939502bf2e5 10359.6549 0 396505d7799e0532 9642.3268 0 3db3173c523d65ce 3216.3208 4 902d469a8dbeacf6
14 4345.1504 0 b014383ed925f3d9 5620.7564 0 4c730168a01bf621 5983.5588 0 7c604b625a5c90cc 2465.2428 7 a2aae5e1974d1875
15 5762.9551 0 f7f0707d218c4114 6959.3202 0 953bfcf962dbef92 6738.2666 0 eabe8e277df58427 2793.0089 5 1d21ff3b11ece55e
16 7430.3480 0 2294d3988800a026 10353.5188 0 15355bd7d69d7ffe 11212.1261 0 c72fe356d5d41aca 4205.5213 6 a2125e1ba0440805
17 5661.2926 0 cb2eaca95b120704 7375.0677 0 97552e207019e6d9 7480.0178 0 9e8d3ebca6839409 2655.7140 5 97f30b1496aa981b
18 6384.7599 0 a26347ad0643dfc8 9044.5022 0 f6b87581c3c09f77 8534.2067 0 25a26320bd16c6b9 2741.2562 5 eaca4c63b36eb14f
19 6390.7906 0 6b7f51512dbe9c33 7251.6533 0 1799d3e27b597ccf 7629.8820 0 c5070fa52633b61c 2779.4812 8 169ab1b49d32f4ca
20 5810.2551 0 576569bb68f1ae33 8367.8139 0 8b45df7bb00cb601 8205.1525 0 52dd4f1b85ebea76 3666.6890 6 08403ca87ed46801
21 4740.0622 0 6025d3b580376a18 8574.2338 0 e1d72582976bdf45 8642.4530 0 026faeddea1b2afc 2805.7968 6 3e548a8d24141e5a
22 5764.6172 0 45ed0e043e664768 7728.0957 0 a5e62caebc316c9b 7455.4109 0 2ecd590a00779265 2085.1921 7 fac6c1ee4b7666e0
23 5181.8773 0 ba9389f8b79b45e8 7697.0906 0 172f4aeb408d62d0 7278.2862 0 41a69e9b205f70fb 3119.2343 4 1f18082deef54d6d
24 4502.4027 0 61f7e7df9b27aa47 6646.4937 0 62328655ce75f2b3 6818.4300 0 45e5fef3cc68a736 2053.3015 6 9124f8c47dd299bf
25 5437.9496 0 ab306c86dabb33c2 9041.2888 0 e51c679db48da28b 8480.6479 0 eefd6186ee51c5d9 3777.4005 4 488ad16ee45488ce
26 5536.3227 0 ac6c42f45a5c69ac 8297.6115 0 6d2d862e20c83634 7446.2647 0 58fcfedbebbcc424 3528.1273 5 24dc3dcc57009552
27 4705.5555 0 d4e14f48556bf73f 5980.8815 0 750985c12ac97032 5996.5879 1 2967aed04fb015d2 2423.7090 6 288b83724689c6df
28 6043.1952 0 8c5f47c964dedca4 8153.5052 0 9c671eda8c4c9faa 8015.0091 0 af0f73df888e85fd 3429.9646 7 67932001a122f06b
29 4827.1665 0 6cac77006c65e40a 5386.0743 0 eef66dfdef5e66e1 6425.7493 0 8a93adc4bf08a056 2746.4160 6 36ad91b86e4102be
30 5770.2888 0 6e3e72d6302b8fe2 7833.8738 0 2e1dcabf363c155f 8387.8886 0 ee57cae87acf255b 3646.8191 6 04bababc7dcf8ceb
31 5696.5804 0 d3e0f2aab5f941db 7547.2954 0 eee8c1b17518ab94 7267.9430 0 83761dc37fbaa998 3318.4802 7 461e959d6565d7a4
32 5302.6647 0 ae9ba1adb8c626b0 7503.7053 0 d7503feda3a5d2da 7357.0267 0 5bab820520e72e83 3044.1693 7 6a2ce8f2b6b66a35
33 4550.1256 0 4bd1c1afbdbcc466 7456.7978 0 b99c7db3afec4f8a 7105.5168 0 be9411f5156a3d01 2743.7166 6 6688c07fc3d90679
34 6469.7225 0 2d163a34c276f078 9299.7925 0 6406113cef8030b9 9720.1595 0 c53d18cd58c6f8a6 3891.4786 4 8392df266a36141f
35 4110.2572 0 10905028e7284a88 5542.4828 0 b49835e584bec1c3 5903.0267 1 032bf5ee5b679715 2711.6607 6 2b9e09a1cdc81769
36 5522.3338 1 66ebb77ef8143d2f 7869.6263 0 9c80448e7367f101 9297.9572 0 f14910f89838c485 3419.4693 7 e758e5c4c9ae7bc8
37 5406.4968 0 ac10a8d6e5db0ea4 7042.9135 0 3f9ed09c03cabf54 6884.5403 0 d88ad1f2f883c764 3440.1195 6 76447e1b9e7e2350
38 4182.8216 0 82403f53b78d0b70 6169.5906 0 6d597d39463497cd 5957.6328 0 c9d766d7fa8df3c9 2522.2290 7 7c389fb39b931c8b
39 6198.0738 0 5e7872dccb0665f2 8072.2725 0 432ac38791fde264 8366.3267 0 5b475f1ed4c16afd 3926.7934 6 cf2f4749f6e950c9
40 5429.5073 0 751a219e0d59b7ff 8286.6308 0 d85598f877ac3f4d 8305.7011 0 884bf8c9ab7b67f4 3054.2419 5 702a21c8f53b82ba
41 5536.1536 0 2a27176d819a945c 8004.5378 0 38af9c42356295d6 8149.6527 0 6db5066edaa00d4a 3465.3742 5 2c9f42dc4535b63b
42 5725.1093 0 c55a406580236eeb 8576.4550 0 03e84bff2fd58bcc 8685.8887 0 29b603147632abc6 2958.6841 7 bea8e36a1768a234
43 6556.9741 0 e438e1a57437d986 8764.1723 0 9a49c2aa31b7a2bd 8551.6808 0 aa46d9fb41bc8710 3242.4056 5 4cb6ac6798a514b3
44 5144.2146 0 c1dd5bf7c4153218 6390.7181 0 dac5d9d6449ab1e9 7486.5014 0 95dbcecadac354c7 2805.0410 6 0e0e8644d87a33f1
45 4734.8887 0 387647f9bde62974 5678.6339 0 f6a81c0e5b4087ba 5678.9229 0 5ab85f83014b44e3 2416.4368 6 0b6e7d7ab4a3c514
46 5080.7485 0 1ae8a09cdf18d2a4 6319.5520 0 2209b5455c4cd66c 6852.6896 0 992c06d4c305e017 2958.4449 7 99a0d1be51438b46
47 4839.5913 0 a77e00db2a958302 5740.1630 0 8eb0651f42e62aff 6192.5445 0 9b2a6205388bb33c 3479.4149 6 881f917462ae66e2
48 7877.9381 0 5d4612b3b6e08ad3 9885.0824 0 e8d77f94ab76f3d3 9279.5025 0 6b238f99e4a5b1c2 4353.0894 8 4df7928b4a289f95
49 7198.2810 0 ae78d0af372aa2aa 8311.6651 0 be77a190672efaeb 8369.4667 0 5d4d0c78620d04ce 4315.5788 5 91eb907d55e5c754
|golden}

let parse_golden () =
  golden_table |> String.trim |> String.split_on_char '\n'
  |> List.map (fun line ->
         match
           line |> String.trim |> String.split_on_char ' '
           |> List.filter (fun s -> s <> "")
         with
         | seed :: rest ->
           let rec triples = function
             | e :: m :: d :: tl ->
               (float_of_string e, int_of_string m, d) :: triples tl
             | [] -> []
             | _ -> failwith "golden table: field count not a multiple of 3"
           in
           (int_of_string seed, triples rest)
         | [] -> failwith "golden table: empty line")

let regen () =
  for seed = 0 to n_seeds - 1 do
    let ctg = ctg_of_seed seed in
    let cells =
      List.concat_map
        (fun (_, sched) ->
          let energy, misses, digest, _ = run_one sched ctg in
          [ Printf.sprintf "%.4f" energy; string_of_int misses; digest ])
        schedulers
    in
    Printf.eprintf "%d %s\n%!" seed (String.concat " " cells)
  done

let test_structural_feasibility () =
  (* A lighter sweep than the golden one: every scheduler on a handful of
     seeds must produce schedules the independent validator accepts
     (ignoring deadline misses, which deadline-oblivious baselines may
     legitimately incur). *)
  for seed = 0 to 9 do
    let ctg = ctg_of_seed seed in
    List.iter
      (fun (name, sched) ->
        let _, _, _, structural = run_one sched ctg in
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: structural violations" name seed)
          0 (List.length structural))
      schedulers
  done

let test_eas_feasible_on_loose_deadlines () =
  (* Default TGFF tightness is loose enough that EAS must meet every
     deadline: full [is_feasible], not just the structural subset. *)
  for seed = 0 to 9 do
    let ctg = ctg_of_seed seed in
    let schedule = (Noc_eas.Eas.schedule platform ctg).Noc_eas.Eas.schedule in
    Alcotest.(check bool)
      (Printf.sprintf "EAS feasible on seed %d" seed)
      true
      (Validate.is_feasible platform ctg schedule)
  done

let test_golden_energies () =
  if Sys.getenv_opt "ORACLE_REGEN" <> None then regen ()
  else begin
    let golden = parse_golden () in
    Alcotest.(check int) "golden table rows" n_seeds (List.length golden);
    List.iter
      (fun (seed, expected) ->
        let ctg = ctg_of_seed seed in
        List.iter2
          (fun (name, sched) (expected_energy, expected_misses, expected_digest) ->
            let energy, misses, digest, structural = run_one sched ctg in
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: structural violations" name seed)
              0 (List.length structural);
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d: deadline misses" name seed)
              expected_misses misses;
            let tolerance = Float.max 2e-4 (1e-9 *. Float.abs expected_energy) in
            if Float.abs (energy -. expected_energy) > tolerance then
              Alcotest.failf "%s seed %d: energy %.4f, golden %.4f" name seed
                energy expected_energy;
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d: schedule digest" name seed)
              expected_digest digest)
          schedulers expected)
      golden
  end

let suite =
  [
    Alcotest.test_case "structural feasibility, all schedulers" `Quick
      test_structural_feasibility;
    Alcotest.test_case "EAS meets loose deadlines" `Quick
      test_eas_feasible_on_loose_deadlines;
    Alcotest.test_case "golden energy table" `Quick test_golden_energies;
  ]
