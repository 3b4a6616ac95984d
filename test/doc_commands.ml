(* Documentation drift check: every `defender_cli.exe -- solve …` and
   `defender_cli.exe -- query …` command shown in the given Markdown
   files must still parse.  Backslash continuations are joined, a
   trailing `# comment` and a trailing `&` are dropped, and the words
   are split with shell-style single and double quotes.  A command fails
   only when the CLI exits 124, cmdliner's usage error (unknown option,
   bad value); any other outcome is the command's own business — a
   `query` with no daemon behind its socket exits 1, which is fine.

   Commands run in a fresh temporary directory (so `--save` writes
   there), and a `--socket` value is replaced by a path inside it that
   nothing listens on, so a documented `--op shutdown` can never reach a
   daemon someone is running.

   Run as: doc_commands.exe path/to/defender_cli.exe FILE.md…
   (the dune rule passes %{exe:../bin/defender_cli.exe} and the docs). *)

let marker = "defender_cli.exe -- "

(* Index of [sub] in [s], if any. *)
let find s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go 0

(* The file's lines with backslash continuations joined. *)
let logical_lines text =
  let rec join acc pending = function
    | [] -> List.rev (if pending = "" then acc else pending :: acc)
    | line :: rest ->
        let line = pending ^ line in
        let trimmed = String.trim line in
        let n = String.length trimmed in
        if n > 0 && trimmed.[n - 1] = '\\' then
          join acc (String.sub trimmed 0 (n - 1) ^ " ") rest
        else join (line :: acc) "" rest
  in
  join [] "" (String.split_on_char '\n' text)

(* Shell-style words: whitespace-separated, quotes grouping, an
   unquoted word starting with '#' ending the command. *)
let words line =
  let buf = Buffer.create 16 and out = ref [] and started = ref false in
  let flush () =
    if !started then out := Buffer.contents buf :: !out;
    Buffer.clear buf;
    started := false
  in
  let n = String.length line in
  let rec go i quote =
    if i >= n then flush ()
    else
      let c = line.[i] in
      match quote with
      | Some q when c = q -> go (i + 1) None
      | Some _ ->
          Buffer.add_char buf c;
          go (i + 1) quote
      | None -> (
          match c with
          | ' ' | '\t' ->
              flush ();
              go (i + 1) None
          | '#' when not !started -> flush ()
          | '\'' | '"' ->
              started := true;
              go (i + 1) (Some c)
          | _ ->
              started := true;
              Buffer.add_char buf c;
              go (i + 1) None)
  in
  go 0 None;
  List.rev !out

let commands text =
  List.filter_map
    (fun line ->
      match find line marker with
      | None -> None
      | Some i -> (
          let rest =
            String.sub line
              (i + String.length marker)
              (String.length line - i - String.length marker)
          in
          let args = List.filter (fun w -> w <> "&") (words rest) in
          match args with
          | ("solve" | "query") :: _ -> Some args
          | _ -> None))
    (logical_lines text)

let rec replace_socket path = function
  | "--socket" :: _ :: rest -> "--socket" :: path :: replace_socket path rest
  | w :: rest when String.starts_with ~prefix:"--socket=" w ->
      ("--socket=" ^ path) :: replace_socket path rest
  | w :: rest -> w :: replace_socket path rest
  | [] -> []

let run cli args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) null null null
  in
  Unix.close null;
  snd (Unix.waitpid [] pid)

let () =
  match Array.to_list Sys.argv with
  | _ :: cli :: (_ :: _ as docs) ->
      let cli =
        if Filename.is_relative cli then Filename.concat (Sys.getcwd ()) cli
        else cli
      in
      let read path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let texts = List.map (fun doc -> (doc, read doc)) docs in
      let dir = Filename.temp_file "doc_commands" ".d" in
      Sys.remove dir;
      Sys.mkdir dir 0o700;
      Sys.chdir dir;
      let socket = Filename.concat dir "no-daemon.sock" in
      let total = ref 0 and failures = ref 0 in
      List.iter
        (fun (doc, text) ->
          List.iter
            (fun args ->
              incr total;
              match run cli (replace_socket socket args) with
              | Unix.WEXITED 124 ->
                  incr failures;
                  Printf.printf
                    "FAIL %s: usage error (exit 124)\n  defender_cli %s\n" doc
                    (String.concat " " args)
              | _ -> ())
            (commands text))
        texts;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir;
      if !total = 0 then begin
        print_endline "doc_commands: no solve/query command found";
        exit 1
      end;
      if !failures > 0 then exit 1;
      Printf.printf "doc_commands: %d documented solve/query commands parse\n"
        !total
  | _ ->
      prerr_endline "usage: doc_commands.exe DEFENDER_CLI FILE.md...";
      exit 2
