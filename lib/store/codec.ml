let magic = "SSTORE"
let format_version = 1
let digest_len = 16

let encode ~key payload =
  let b =
    Buffer.create (String.length key + String.length payload + 40)
  in
  Buffer.add_string b magic;
  Buffer.add_uint16_be b format_version;
  Buffer.add_int32_be b (Int32.of_int (String.length key));
  Buffer.add_string b key;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let decode ~key s =
  let len = String.length s in
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let header = String.length magic + 2 + 4 in
  if len < header then error "truncated header (%d bytes)" len
  else if String.sub s 0 (String.length magic) <> magic then
    error "bad magic"
  else begin
    let version = String.get_uint16_be s (String.length magic) in
    if version <> format_version then
      error "unsupported codec version %d" version
    else begin
      let key_len = Int32.to_int (String.get_int32_be s (String.length magic + 2)) in
      if key_len < 0 || len < header + key_len + digest_len + 8 then
        error "truncated key/digest/length fields"
      else begin
        let stored_key = String.sub s header key_len in
        if stored_key <> key then
          error "key mismatch: entry holds %S" stored_key
        else begin
          let off = header + key_len in
          let digest = String.sub s off digest_len in
          let pay_len = Int64.to_int (String.get_int64_be s (off + digest_len)) in
          let pay_off = off + digest_len + 8 in
          if pay_len < 0 || len < pay_off + pay_len then
            error "truncated payload (want %d bytes)" pay_len
          else if len > pay_off + pay_len then
            error "trailing garbage after payload"
          else begin
            let payload = String.sub s pay_off pay_len in
            if Digest.string payload <> digest then
              error "payload digest mismatch"
            else Ok (payload, digest)
          end
        end
      end
    end
  end
